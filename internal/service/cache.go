package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Cache is the sweep service's persistent result cache: canonical metric
// renderings keyed by the job key of key.go. Values survive process
// restarts — a daemon restarted on the same -cache-dir serves
// yesterday's sweeps from disk.
//
// Since the distributed execution plane, the cache is layered on the
// content-addressed Store (store.go): the value bytes live in the store
// under their content hash and the per-key file (key.ref) holds only
// that hash. The layering buys two things. Results computed by remote
// workers are published into the same store the cache reads, so
// committing a worker's result is a tiny ref write, and every read is
// integrity-checked — a corrupted blob is detected by its hash, evicted
// along with the ref, and the job transparently re-runs instead of
// serving bad bytes.
//
// Lookups have single-flight semantics: the first claimant of a missing
// key owns its computation; concurrent claimants of the same key (the
// same job submitted twice while the first copy is still simulating)
// wait on the owner's flight instead of simulating again. Ownership is
// process-local — two daemons sharing a directory may duplicate work but
// never corrupt it, because refs and blobs are written atomically
// (tmp + rename) and every value for a key is byte-identical by
// construction.
type Cache struct {
	dir   string
	store *Store

	mu      sync.Mutex
	flights map[string]*Flight
	stats   CacheStats
}

// CacheStats counts cache outcomes since process start.
type CacheStats struct {
	// Hits and Misses count claims served from disk vs claims that had
	// to compute. Waits counts claims that joined another claim's
	// in-progress computation.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Waits  uint64 `json:"waits"`
	// Corrupt counts claims whose stored value failed its integrity
	// check; each evicted the entry and recomputed.
	Corrupt uint64 `json:"corrupt"`
}

// Flight is an in-progress computation of one key. The owner resolves it
// with Fulfill or Fail exactly once; joiners block in Wait.
type Flight struct {
	key  string
	done chan struct{}
	val  []byte
	err  error
}

// Wait blocks until the flight's owner resolves it (or ctx is done) and
// returns the computed value.
func (f *Flight) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// NewCache opens (creating if needed) a cache rooted at dir. The value
// blobs live in the content-addressed store under dir/blobs; BlobStore
// exposes it so the service serves the same store over HTTP.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: cache dir: %w", err)
	}
	store, err := NewStore(filepath.Join(dir, "blobs"))
	if err != nil {
		return nil, err
	}
	return &Cache{dir: dir, store: store, flights: make(map[string]*Flight)}, nil
}

// BlobStore returns the content-addressed store backing the cache's
// values. Workers fetch traces/configs from it and publish results into
// it; the cache commits a published result by writing its ref.
func (c *Cache) BlobStore() *Store { return c.store }

// path maps a key to its ref file (the content hash of its value blob).
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".ref")
}

// read resolves a key via its ref and the store, with integrity
// verification. A corrupt blob (or a dangling ref) evicts the entry and
// reads as a miss, so the caller recomputes instead of serving bad
// bytes.
func (c *Cache) read(key string) ([]byte, bool) {
	ref, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	data, err := c.store.Get(string(ref))
	if err != nil {
		// ErrBlobCorrupt already evicted the blob; either way the ref
		// points at nothing servable, so drop it and recompute.
		os.Remove(c.path(key))
		if errors.Is(err, ErrBlobCorrupt) {
			c.mu.Lock()
			c.stats.Corrupt++
			c.mu.Unlock()
		}
		return nil, false
	}
	return data, true
}

// Claim resolves a key one of three ways:
//
//   - disk hit: (val, true, nil) — the caller has the value;
//   - miss, caller owns: (nil, false, flight) — the caller MUST compute
//     the value and resolve the flight with Fulfill or Fail;
//   - miss, someone else owns: (nil, false, flight) where the flight is
//     not owned — distinguish with owner.
//
// The flights map is consulted before disk so a claim arriving between an
// owner's Fulfill and its map cleanup still gets a consistent answer.
func (c *Cache) Claim(key string) (val []byte, hit bool, owner bool, f *Flight) {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		c.stats.Waits++
		c.mu.Unlock()
		return nil, false, false, f
	}
	// Registering the flight before the disk read closes the window where
	// two concurrent claimants both miss; the loser of the map insert
	// above joins instead. A disk hit releases the claim immediately.
	f = &Flight{key: key, done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	if data, ok := c.read(key); ok {
		c.resolve(f, data, nil, &c.stats.Hits)
		return data, true, false, nil
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, false, true, f
}

// Fulfill persists the owner's computed value and releases every joiner.
// The value reaches joiners even when the disk write fails (the error is
// returned for logging); the next process simply recomputes.
func (c *Cache) Fulfill(f *Flight, val []byte) error { return c.fulfill(f, val, "") }

// fulfill is Fulfill for a value that hash may already name in the store: a
// remote worker published it and the commit handler read it back intact,
// so only the key's ref is written. An empty hash puts val first. Both
// writes are atomic renames, so readers never observe a torn file even
// across processes.
func (c *Cache) fulfill(f *Flight, val []byte, hash string) error {
	var err error
	if hash == "" {
		hash, err = c.store.Put(val)
	}
	if err == nil {
		err = c.writeRef(f.key, hash)
	}
	c.resolve(f, val, nil, nil)
	return err
}

// Fail releases a flight's joiners with the owner's error. Nothing is
// persisted: the next claim of the key retries the computation.
func (c *Cache) Fail(f *Flight, err error) {
	c.resolve(f, nil, err, nil)
}

// resolve publishes a flight's outcome, removes it from the flight table
// and optionally bumps a counter under the same lock.
func (c *Cache) resolve(f *Flight, val []byte, err error, counter *uint64) {
	f.val, f.err = val, err
	c.mu.Lock()
	delete(c.flights, f.key)
	if counter != nil {
		*counter++
	}
	c.mu.Unlock()
	close(f.done)
}

// writeRef atomically points key at an already-stored blob.
func (c *Cache) writeRef(key, hash string) error {
	tmp, err := os.CreateTemp(c.dir, key+".tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.WriteString(hash); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
