package sim

import (
	"bytes"
	"errors"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// seedCheckpoint checkpoints app at scale 0.25 on the RTX 2080 Ti under kind
// at the first kernel boundary at or after cycle at.
func seedCheckpoint(tb testing.TB, name string, kind Kind, at uint64) []byte {
	tb.Helper()
	gpu, ok := config.Preset("RTX2080Ti")
	if !ok {
		tb.Fatal("missing RTX2080Ti preset")
	}
	app, err := workload.Generate(name, 0.25)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Run(app, gpu, Options{Kind: kind, SnapshotAt: at, SnapshotTo: &buf}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeedSnapshot is the corpus's first checkpoint: a tiny Memory-kind run
// snapshotted at its first kernel boundary.
func fuzzSeedSnapshot(tb testing.TB) []byte { return seedCheckpoint(tb, "GEMM", Memory, 0) }

// FuzzParseSnapshot drives the checkpoint decoder with arbitrary bytes: it
// must return a structured error or nil, never panic, and never allocate
// proportionally to an attacker-controlled count field. The seed corpus
// covers the interesting prefixes: a real checkpoint, truncations at every
// framing layer, a corrupt magic, and a version from the future. A Basic
// checkpoint taken mid-run, with stores in flight, seeds the sections that
// hold them: the timed caches', the NoC's and DRAM's queues and the engine's
// pending retirements.
func FuzzParseSnapshot(f *testing.F) {
	valid := fuzzSeedSnapshot(f)
	f.Add(valid)
	inflight := seedCheckpoint(f, "BFS", Basic, 1000)
	f.Add(inflight)
	f.Add(inflight[:len(inflight)-len(inflight)/8]) // truncated
	f.Add([]byte{})
	f.Add([]byte("SSIM"))
	f.Add(valid[:4+4])                           // header only
	f.Add(valid[:len(valid)/2])                  // mid-stream truncation
	f.Add(valid[:len(valid)-1])                  // last byte missing
	f.Add(append(append([]byte{}, valid...), 0)) // trailing garbage

	// Corrupt magic.
	bad := append([]byte{}, valid...)
	bad[0] ^= 0xff
	f.Add(bad)

	// Version skew: bump the format version after the magic.
	skew := append([]byte{}, valid...)
	skew[4] ^= 0xff
	f.Add(skew)

	// Absurd count fields right after the identity section.
	huge := append([]byte{}, valid[:16]...)
	for i := 0; i < 8; i++ {
		huge = append(huge, 0xff)
	}
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic; errors are the expected outcome for junk.
		_ = ParseSnapshot(data)
	})
}

// TestParseSnapshotErrors pins the decoder's structured-error contract on
// the corpus the fuzzer starts from.
func TestParseSnapshotErrors(t *testing.T) {
	valid := fuzzSeedSnapshot(t)
	if err := ParseSnapshot(valid); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}

	bad := append([]byte{}, valid...)
	bad[0] ^= 0xff
	if err := ParseSnapshot(bad); err == nil {
		t.Error("corrupt magic accepted")
	}

	skew := append([]byte{}, valid...)
	skew[4] ^= 0xff
	if err := ParseSnapshot(skew); err == nil {
		t.Error("version skew accepted")
	}

	for _, cut := range []int{0, 4, 8, 16, len(valid) / 2, len(valid) - 1} {
		if err := ParseSnapshot(valid[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}

	long := append(append([]byte{}, valid...), 0xAA)
	if err := ParseSnapshot(long); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestRestoreRejectsMismatch pins the identity checks: a checkpoint of one
// run must refuse to restore into a differently configured one with
// ErrSnapshotMismatch, not a crash or silent acceptance.
func TestRestoreRejectsMismatch(t *testing.T) {
	gpu, _ := config.Preset("RTX2080Ti")
	other, _ := config.Preset("RTX3060")
	app, err := workload.Generate("GEMM", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := workload.Generate("BFS", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Run(app, gpu, Options{Kind: Memory, SnapshotTo: &buf}); err != nil {
		t.Fatal(err)
	}
	snapBytes := buf.Bytes()

	cases := []struct {
		label string
		app   *trace.App
		gpu   config.GPU
		opts  Options
	}{
		{"different app", bfs, gpu, Options{Kind: Memory}},
		{"different GPU", app, other, Options{Kind: Memory}},
		{"different kind", app, gpu, Options{Kind: Basic}},
		{"different latency scale", app, gpu, Options{Kind: Memory, LatencyScale: 2}},
		{"different max cycles", app, gpu, Options{Kind: Memory, MaxCycles: 12345}},
	}
	for _, c := range cases {
		c.opts.RestoreFrom = bytes.NewReader(snapBytes)
		if _, err := Run(c.app, c.gpu, c.opts); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s: want ErrSnapshotMismatch, got %v", c.label, err)
		}
	}

	// The matching configuration restores cleanly.
	res, err := Run(app, gpu, Options{Kind: Memory, RestoreFrom: bytes.NewReader(snapBytes)})
	if err != nil {
		t.Fatalf("matching restore failed: %v", err)
	}
	if res == nil || res.Cycles == 0 {
		t.Error("matching restore produced an empty result")
	}
}
