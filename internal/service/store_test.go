package service

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

func TestStorePutGetRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("trace bytes")
	hash, err := st.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if hash != BlobHash(data) {
		t.Errorf("Put hash = %s, want %s", hash, BlobHash(data))
	}
	if _, err := os.Stat(st.path(hash)); err != nil {
		t.Errorf("no blob file after Put: %v", err)
	}
	got, err := st.Get(hash)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("Get = %q, want %q", got, data)
	}
	if s := st.Stats(); s.Puts != 1 || s.Gets != 1 || s.Dups != 0 {
		t.Errorf("stats = %+v, want 1 put / 1 get", s)
	}
}

// TestStorePutIdempotent: re-putting existing content is a no-op counted
// as a dup — two racing workers publishing the same canonical result is
// the normal case, not an error.
func TestStorePutIdempotent(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h1, err := st.Put([]byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := st.Put([]byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("hashes differ: %s vs %s", h1, h2)
	}
	if s := st.Stats(); s.Puts != 1 || s.Dups != 1 {
		t.Errorf("stats = %+v, want 1 put / 1 dup", s)
	}
}

// TestStoreCorruptionEvicted: a blob whose bytes no longer hash to its
// name is reported as corrupt and removed from disk; a later Get is a
// plain not-found.
func TestStoreCorruptionEvicted(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := st.Put([]byte("pristine"))
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, hash+".blob")
	if err := os.WriteFile(file, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(hash); !errors.Is(err, ErrBlobCorrupt) {
		t.Fatalf("Get after tamper = %v, want ErrBlobCorrupt", err)
	}
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Errorf("corrupt blob not evicted (stat err=%v)", err)
	}
	if _, err := st.Get(hash); !errors.Is(err, ErrBlobNotFound) {
		t.Errorf("Get after eviction = %v, want ErrBlobNotFound", err)
	}
	if s := st.Stats(); s.Corrupt != 1 {
		t.Errorf("stats.Corrupt = %d, want 1", s.Corrupt)
	}
}

// TestStoreRejectsMalformedHashes: anything that is not 64 lowercase hex
// digits reads as not-found and never touches the filesystem — this is
// what keeps "../../etc/passwd" out of the HTTP store endpoint.
func TestStoreRejectsMalformedHashes(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"",
		"short",
		"../../../../etc/passwd",
		"ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789", // uppercase
		"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz", // non-hex
		BlobHash(nil) + "0", // 65 chars
		BlobHash(nil)[:63],  // 63 chars
	}
	for _, h := range bad {
		if _, err := st.Get(h); !errors.Is(err, ErrBlobNotFound) {
			t.Errorf("Get(%q) = %v, want ErrBlobNotFound", h, err)
		}
		if validBlobHash(h) {
			t.Errorf("validBlobHash(%q) = true", h)
		}
	}
}

// TestStoreGetMissing: a blob that is not there, or cannot be read, is
// ErrBlobNotFound (a 404 over HTTP) that keeps its cause, so a caller tells
// a blob that is gone from one that failed to read; the message leaves out
// the store's directory.
func TestStoreGetMissing(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Get(BlobHash([]byte("never stored")))
	if !errors.Is(err, ErrBlobNotFound) || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Get = %v, want ErrBlobNotFound wrapping fs.ErrNotExist", err)
	}
	if err != nil && strings.Contains(err.Error(), dir) {
		t.Errorf("Get's error names the store directory: %v", err)
	}
	hash := BlobHash([]byte("a directory"))
	if err := os.Mkdir(filepath.Join(dir, hash+".blob"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(hash); !errors.Is(err, ErrBlobNotFound) || errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Get of an unreadable blob = %v, want ErrBlobNotFound not wrapping fs.ErrNotExist", err)
	}
}

// TestStoreGetSharesOneCopy: every Get of a hash returns the store's one copy
// of the blob, with cap == len, and still reads and verifies the disk copy:
// a held blob corrupted on disk is evicted, and a deleted one is not found.
func TestStoreGetSharesOneCopy(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("canonical result")
	hash, err := st.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	a, errA := st.Get(hash)
	b, errB := st.Get(hash)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if unsafe.SliceData(a) != unsafe.SliceData(b) || cap(a) != len(a) || string(a) != string(data) {
		t.Errorf("two Gets returned %q at %p (cap %d) and %p, want one copy of %q with cap == len",
			a, unsafe.SliceData(a), cap(a), unsafe.SliceData(b), data)
	}
	if unsafe.SliceData(a) == unsafe.SliceData(data) {
		t.Error("Get returned the caller's Put slice, want the store's own copy")
	}

	if err := os.WriteFile(st.path(hash), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(hash); !errors.Is(err, ErrBlobCorrupt) {
		t.Errorf("Get of a held blob corrupted on disk: %v, want ErrBlobCorrupt", err)
	}
	if _, err := st.Get(hash); !errors.Is(err, ErrBlobNotFound) || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Get of an evicted held blob: %v, want ErrBlobNotFound wrapping fs.ErrNotExist", err)
	}
	if s := st.Stats(); s.Gets != 2 || s.Corrupt != 1 {
		t.Errorf("stats = %+v, want 2 gets, 1 corrupt", s)
	}
}
