package service

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Cache is the sweep service's persistent result cache: canonical metric
// renderings keyed by the job key of key.go. Values survive process
// restarts — a daemon restarted on the same -cache-dir serves
// yesterday's sweeps from disk.
//
// A key maps to a ref and a ref to a verified blob, and that is all the
// cache holds. The value bytes live in the content-addressed Store
// (store.go) under their content hash, and the per-key file (key.ref)
// holds only that hash. Results computed by remote workers are published
// into the same store, so committing a worker's result is a tiny ref write,
// and every read is integrity-checked — a corrupted blob is detected by its
// hash, evicted along with the ref, and the job transparently re-runs
// instead of serving bad bytes.
//
// The cache keeps no table of computations in progress: the lease board
// (lease.go) is the one table of unresolved jobs, and identical jobs join
// there. Two daemons sharing a directory may duplicate work but never
// corrupt it, because refs and blobs are written atomically (tmp + rename)
// and every value for a key is byte-identical by construction.
type Cache struct {
	dir   string
	store *Store

	// refs remembers the blob hash of each key a lookup has served, so a
	// repeated hit opens no ref file; its blob is still read and verified.
	// It is emptied when it reaches maxRefs entries.
	refMu sync.Mutex
	refs  map[string]string

	// The counters behind CacheStats. lookup counts hits and corrupt
	// entries; the board counts misses and waits, the outcomes of its posts.
	hits, misses, waits, corrupt atomic.Uint64
}

// CacheStats counts cache outcomes since process start.
type CacheStats struct {
	// Hits counts jobs served from disk, Misses jobs that had to be
	// computed, and Waits jobs that joined an identical job already on the
	// board.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Waits  uint64 `json:"waits"`
	// Corrupt counts reads whose stored value failed its integrity check;
	// each evicted the entry, so its job was computed again.
	Corrupt uint64 `json:"corrupt"`
}

// Flight is a miss returned by Claim: the key its computed value is stored
// under by Fulfill.
type Flight struct {
	key string
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
	return &Cache{dir: dir, store: store, refs: make(map[string]string)}, nil
}

// maxRefs bounds Cache.refs: at about 200 bytes an entry, 13 MB.
const maxRefs = 1 << 16

// BlobStore returns the content-addressed store backing the cache's
// values. Workers publish results into it; the cache commits a published
// result by writing its ref.
func (c *Cache) BlobStore() *Store { return c.store }

// path maps a key to its ref file (the content hash of its value blob).
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".ref")
}

// lookup resolves a key via its ref and the store, with integrity
// verification, and counts a hit. The ref comes from refs when a lookup has
// served the key before, else from its file. An entry whose blob is corrupt
// or gone, or whose ref is malformed, is evicted (ref file and remembered
// hash) and reads as a miss, so the caller recomputes instead of serving
// bad bytes; a blob that fails to read for any other reason is a miss that
// leaves the entry for a later lookup. A miss counts nothing: whether it
// becomes a computation is the board's to say.
func (c *Cache) lookup(key string) ([]byte, bool) {
	c.refMu.Lock()
	ref, known := c.refs[key]
	c.refMu.Unlock()
	if !known {
		b, err := os.ReadFile(c.path(key))
		if err != nil {
			return nil, false
		}
		ref = string(b)
	}
	data, err := c.store.Get(ref)
	if err != nil {
		// ErrBlobCorrupt already evicted the blob.
		corrupt := errors.Is(err, ErrBlobCorrupt)
		if corrupt || errors.Is(err, fs.ErrNotExist) || !validBlobHash(ref) {
			c.refMu.Lock()
			delete(c.refs, key)
			c.refMu.Unlock()
			os.Remove(c.path(key))
		}
		if corrupt {
			c.corrupt.Add(1)
		}
		return nil, false
	}
	if !known {
		c.refMu.Lock()
		if len(c.refs) >= maxRefs {
			clear(c.refs)
		}
		c.refs[key] = ref
		c.refMu.Unlock()
	}
	c.hits.Add(1)
	return data, true
}

// Claim reads key from disk. A hit returns (val, true, false, nil); a miss
// counts a computation and returns (nil, false, true, f), and the caller
// stores the value it computes with Fulfill(f, val). owner is always !hit:
// single-flight lives in the board, which the service posts its misses to.
// The four-value form stays because the benchmark harness under bench/
// compiles against it; the benchmark revision planned in ROADMAP.md may
// drop owner.
func (c *Cache) Claim(key string) (val []byte, hit bool, owner bool, f *Flight) {
	if val, ok := c.lookup(key); ok {
		return val, true, false, nil
	}
	c.misses.Add(1)
	return nil, false, true, &Flight{key: key}
}

// Fulfill stores the value computed for a claimed miss.
func (c *Cache) Fulfill(f *Flight, val []byte) error { return c.put(f.key, val, "") }

// put stores val under key. hash names val in the store when a remote
// worker already published it there and the commit handler read it back
// intact, so only the key's ref is written; an empty hash puts val first.
// Both writes are atomic renames, so readers never observe a torn file even
// across processes.
func (c *Cache) put(key string, val []byte, hash string) error {
	var err error
	if hash == "" {
		hash, err = c.store.Put(val)
	}
	if err == nil {
		err = c.writeRef(key, hash)
	}
	return err
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
	return CacheStats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Waits: c.waits.Load(), Corrupt: c.corrupt.Load(),
	}
}
