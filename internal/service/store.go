package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Store is the service's content-addressed blob store: immutable byte
// blobs named by the hex SHA-256 of their content, one file per blob
// under a directory. It holds canonical results and nothing else: remote
// workers publish them over HTTP and commit by hash (a job's inputs reach
// a worker by name, in its grant), and the result cache (cache.go) stores
// only small hash references into it.
//
// Addressing by content makes the store self-verifying: Get re-hashes
// the bytes it reads and a mismatch (disk corruption, a torn write from
// a foreign process) evicts the blob and reports ErrBlobCorrupt instead
// of ever serving bad bytes. Writes are atomic (tmp + rename) and
// idempotent — putting a blob that already exists is a no-op — so any
// number of daemons and workers can share a directory safely.
type Store struct {
	dir string

	mu    sync.Mutex
	stats StoreStats
}

// StoreStats counts blob-store outcomes since process start.
type StoreStats struct {
	// Puts counts blobs written (idempotent re-puts of an existing blob
	// are counted under Dups instead). Gets counts successful reads.
	Puts uint64 `json:"puts"`
	Dups uint64 `json:"dups"`
	Gets uint64 `json:"gets"`
	// Corrupt counts blobs whose content no longer matched their hash on
	// read; each was evicted rather than served.
	Corrupt uint64 `json:"corrupt"`
}

// Blob-store sentinel errors.
var (
	// ErrBlobNotFound reports a hash with no stored blob (404 over HTTP).
	ErrBlobNotFound = errors.New("service: blob not found")
	// ErrBlobCorrupt reports a stored blob whose bytes no longer hash to
	// its name; the blob has been evicted.
	ErrBlobCorrupt = errors.New("service: blob corrupt (content hash mismatch), evicted")
)

// BlobHash names a blob: the lowercase hex SHA-256 of its content.
func BlobHash(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// validBlobHash reports whether h is a well-formed blob name — exactly 64
// lowercase hex digits. Rejecting anything else keeps path traversal out
// of the store directory.
func validBlobHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NewStore opens (creating if needed) a store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: store dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// path maps a hash to its blob file.
func (st *Store) path(hash string) string {
	return filepath.Join(st.dir, hash+".blob")
}

// Put stores data under its content hash and returns the hash. Storing
// a blob that already exists is a cheap no-op, so callers re-publish
// freely (a result the worker published and the cache then fulfils, the
// same result from two racing workers).
func (st *Store) Put(data []byte) (string, error) {
	hash := BlobHash(data)
	if _, err := os.Stat(st.path(hash)); err == nil {
		st.count(func(s *StoreStats) { s.Dups++ })
		return hash, nil
	}
	tmp, err := os.CreateTemp(st.dir, "put-*.tmp")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := os.Rename(tmp.Name(), st.path(hash)); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	st.count(func(s *StoreStats) { s.Puts++ })
	return hash, nil
}

// Get returns the blob named hash after verifying its content still
// hashes to its name. A missing or malformed hash is ErrBlobNotFound; a
// blob that fails verification is evicted from disk and reported as
// ErrBlobCorrupt — the caller treats it as a miss and recomputes, never
// serving bad bytes.
func (st *Store) Get(hash string) ([]byte, error) {
	if !validBlobHash(hash) {
		return nil, fmt.Errorf("%w: malformed hash %q", ErrBlobNotFound, hash)
	}
	data, err := os.ReadFile(st.path(hash))
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrBlobNotFound, hash)
	}
	if BlobHash(data) != hash {
		os.Remove(st.path(hash))
		st.count(func(s *StoreStats) { s.Corrupt++ })
		return nil, fmt.Errorf("%w: %s", ErrBlobCorrupt, hash)
	}
	st.count(func(s *StoreStats) { s.Gets++ })
	return data, nil
}

// Has reports whether a well-formed hash names a stored blob (without
// verifying its content; Get does that).
func (st *Store) Has(hash string) bool {
	if !validBlobHash(hash) {
		return false
	}
	_, err := os.Stat(st.path(hash))
	return err == nil
}

// count mutates the stats under the lock.
func (st *Store) count(f func(*StoreStats)) {
	st.mu.Lock()
	f(&st.stats)
	st.mu.Unlock()
}

// Stats returns a snapshot of the store counters.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}
