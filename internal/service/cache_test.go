package service

import (
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCacheMissFulfillHit(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	val, hit, owner, f := c.Claim("k1")
	if hit || !owner {
		t.Fatalf("first claim: hit=%v owner=%v, want miss+owner", hit, owner)
	}
	if err := c.Fulfill(f, []byte("payload")); err != nil {
		t.Fatalf("Fulfill: %v", err)
	}
	val, hit, owner, _ = c.Claim("k1")
	if !hit || owner {
		t.Fatalf("second claim: hit=%v owner=%v, want disk hit", hit, owner)
	}
	if string(val) != "payload" {
		t.Errorf("cached value = %q", val)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Waits != 0 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 0 waits", st)
	}
}

// TestCachePersistsAcrossInstances: a value written by one Cache is
// served by a new Cache on the same directory — the restart survival the
// daemon's -cache-dir promises.
func TestCachePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, f := c1.Claim("k")
	if err := c1.Fulfill(f, []byte("v")); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	val, hit, _, _ := c2.Claim("k")
	if !hit || string(val) != "v" {
		t.Fatalf("fresh instance: hit=%v val=%q, want persisted value", hit, val)
	}
}

// TestCacheWriteAtomic: the value directory never contains a torn or
// temporary file after Fulfill returns — just the key's ref and the
// blob store directory holding exactly the value blob.
func TestCacheWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, f := c.Claim("kk")
	if err := c.Fulfill(f, []byte("value")); err != nil {
		t.Fatal(err)
	}
	names := dirNames(t, dir)
	if len(names) != 2 || names[0] != "blobs" || names[1] != "kk.ref" {
		t.Errorf("cache dir = %v, want exactly [blobs kk.ref]", names)
	}
	want := BlobHash([]byte("value")) + ".blob"
	blobs := dirNames(t, filepath.Join(dir, "blobs"))
	if len(blobs) != 1 || blobs[0] != want {
		t.Errorf("blob dir = %v, want exactly [%s]", blobs, want)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestCacheCorruptBlobEvicted: flipping bytes in a stored value blob is
// detected by the read-side hash check; the entry is evicted and the
// next claim owns a fresh computation instead of serving bad bytes.
func TestCacheCorruptBlobEvicted(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, f := c.Claim("k")
	if err := c.Fulfill(f, []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	blob := filepath.Join(dir, "blobs", BlobHash([]byte("good bytes"))+".blob")
	if err := os.WriteFile(blob, []byte("bad bytes!"), 0o644); err != nil {
		t.Fatal(err)
	}

	val, hit, owner, f2 := c.Claim("k")
	if hit || !owner {
		t.Fatalf("claim after corruption: hit=%v owner=%v val=%q, want miss+owner", hit, owner, val)
	}
	if _, err := os.Stat(blob); !os.IsNotExist(err) {
		t.Errorf("corrupt blob still on disk (stat err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "k.ref")); !os.IsNotExist(err) {
		t.Errorf("dangling ref still on disk (stat err=%v)", err)
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Errorf("stats.Corrupt = %d, want 1", st.Corrupt)
	}
	// The re-run heals the entry.
	if err := c.Fulfill(f2, []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	val, hit, _, _ = c.Claim("k")
	if !hit || string(val) != "good bytes" {
		t.Errorf("healed claim: hit=%v val=%q", hit, val)
	}
}

// TestCacheTransientBlobReadKeepsEntry: a blob that is there but cannot be
// read (a directory in its place fails with EISDIR) is a miss that evicts
// nothing and counts no corruption, so the entry is served again once the
// blob reads.
func TestCacheTransientBlobReadKeepsEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, f := c.Claim("k")
	if err := c.Fulfill(f, []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	if _, hit, _, _ := c.Claim("k"); !hit {
		t.Fatal("claim after fulfil missed")
	}
	blob := filepath.Join(dir, "blobs", BlobHash([]byte("good bytes"))+".blob")
	if err := os.Rename(blob, blob+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(blob, 0o755); err != nil {
		t.Fatal(err)
	}

	if val, hit, _, _ := c.Claim("k"); hit {
		t.Fatalf("claim over an unreadable blob hit with %q", val)
	}
	if _, err := os.Stat(filepath.Join(dir, "k.ref")); err != nil {
		t.Errorf("an unreadable blob evicted the ref: %v", err)
	}
	if st := c.Stats(); st.Corrupt != 0 {
		t.Errorf("stats.Corrupt = %d, want 0", st.Corrupt)
	}

	if err := os.Remove(blob); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(blob+".aside", blob); err != nil {
		t.Fatal(err)
	}
	if val, hit, _, _ := c.Claim("k"); !hit || string(val) != "good bytes" {
		t.Errorf("claim after the blob reads again: hit=%v val=%q", hit, val)
	}
}

// writeCacheFixture adds a cache entry stored by this build to the committed
// ones:
//
//	go test ./internal/service/ -run CacheKeyFixtures -write-cache-fixture
var writeCacheFixture = flag.Bool("write-cache-fixture", false, "store smallSpec's job under testdata/keyschema/<keySchema's number>")

// TestCacheKeyFixtures holds committed cache entries to the key schema rule.
// Each testdata/keyschema/<N> is a cache directory with one entry, a ref and
// its blob, for smallSpec's job, stored under key schema N by a test binary
// (code version "unversioned"). A Service opened on a copy of the current
// schema's directory must serve the job as a hit with the stored bytes, so
// a key derivation that changes without a keySchema bump fails here. Under
// any other schema an entry is simply cold: the job is computed. A change
// that bumps keySchema keeps the old directory, which then checks that it
// is cold, and adds one with -write-cache-fixture.
func TestCacheKeyFixtures(t *testing.T) {
	schema := strings.TrimPrefix(keySchema, "swiftsim-service-key ")
	if *writeCacheFixture {
		dir := filepath.Join("testdata", "keyschema", schema)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		waitDone(t, submit(t, newService(t, Config{CacheDir: dir}), smallSpec()))
	}

	dirs, err := filepath.Glob(filepath.Join("testdata", "keyschema", "*"))
	if err != nil {
		t.Fatal(err)
	}
	current := false
	for _, dir := range dirs {
		refs, err := filepath.Glob(filepath.Join(dir, "*.ref"))
		if err != nil || len(refs) != 1 {
			t.Fatalf("%s: refs %v (%v), want one", dir, refs, err)
		}
		hash, err := os.ReadFile(refs[0])
		if err != nil {
			t.Fatal(err)
		}
		cacheDir := t.TempDir()
		copyDir(t, dir, cacheDir)
		sw := submit(t, newService(t, Config{CacheDir: cacheDir}), smallSpec())
		waitDone(t, sw)
		st := sw.Status()
		res, _ := sw.Results()
		if filepath.Base(dir) != schema {
			if st.Ok != 1 || st.Cached != 0 {
				t.Errorf("%s under key schema %s: %+v, want the entry cold and the job computed", dir, schema, st)
			}
			continue
		}
		current = true
		if st.Cached != 1 || BlobHash(res) != string(hash) {
			t.Errorf("%s: %+v, want the stored entry served as a hit", dir, st)
		}
	}
	if !current {
		t.Errorf("no cache fixture under key schema %s (add one with -write-cache-fixture)", schema)
	}
}

// submit submits spec to s, failing the test on a rejection.
func submit(t *testing.T, s *Service, spec Spec) *Sweep {
	t.Helper()
	sw, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// copyDir copies the tree at src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
