package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readTraceJSON parses path as a Chrome trace-event array.
func readTraceJSON(t *testing.T, path string) []map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("%s is not a valid trace-event array: %v\n%s", path, err, data)
	}
	return events
}

// TestSweepTraceOut: a successful sweep writes a loadable trace with
// kernel spans from every simulation it ran.
func TestSweepTraceOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.json")
	code, _, stderr := runSweep(t,
		"-exp", "fig4", "-apps", "BFS", "-scale", "0.1", "-trace-out", out)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	var kernelSpans int
	for _, ev := range readTraceJSON(t, out) {
		if ev["cat"] == "kernel" && ev["ph"] == "X" {
			kernelSpans++
		}
	}
	if kernelSpans == 0 {
		t.Error("trace has no kernel spans")
	}
}

// TestSweepTraceTerminatedOnFailedJobs is the truncation regression test:
// when jobs fail (exit code 2 — here via an unmeetable per-job deadline),
// the trace file must still be a well-terminated JSON array, not a
// fragment cut off mid-stream.
func TestSweepTraceTerminatedOnFailedJobs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "partial.json")
	code, _, stderr := runSweep(t, "-exp", "fig4", "-apps", "BFS", "-scale", "0.1",
		"-job-timeout", "1ns", "-trace-out", out)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
	}
	readTraceJSON(t, out) // fails the test if the array is unterminated
}

// TestSweepTraceTerminatedOnCancel: even a sweep canceled before it
// starts (exit code 1) leaves a valid, loadable trace file.
func TestSweepTraceTerminatedOnCancel(t *testing.T) {
	out := filepath.Join(t.TempDir(), "canceled.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var o, e strings.Builder
	code := realMain(ctx, []string{
		"-exp", "fig4", "-apps", "BFS", "-scale", "0.1", "-trace-out", out}, &o, &e)
	if code == 0 {
		t.Fatalf("canceled sweep exited 0; stdout:\n%s", o.String())
	}
	readTraceJSON(t, out)
}

// TestSweepTraceBadLevelExitsOne: an unknown -trace-level is a usage
// error, caught before any work runs.
func TestSweepTraceBadLevelExitsOne(t *testing.T) {
	code, _, stderr := runSweep(t, "-exp", "table1",
		"-trace-out", filepath.Join(t.TempDir(), "t.json"), "-trace-level", "everything")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "everything") {
		t.Errorf("stderr does not name the bad level:\n%s", stderr)
	}
}
