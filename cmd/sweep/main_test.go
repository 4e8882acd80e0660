package main

import (
	"context"
	"os"
	"strings"
	"testing"
)

func runSweep(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = realMain(context.Background(), args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestExitZeroOnSuccess(t *testing.T) {
	code, out, stderr := runSweep(t, "-exp", "table1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "Table I") {
		t.Errorf("missing table output:\n%s", out)
	}
}

func TestExitOneOnBadExperiment(t *testing.T) {
	code, _, stderr := runSweep(t, "-exp", "nonsense")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "unknown experiment") {
		t.Errorf("stderr does not name the problem:\n%s", stderr)
	}
}

func TestExitOneOnBadFlag(t *testing.T) {
	if code, _, _ := runSweep(t, "-no-such-flag"); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
}

// TestExitOneOnBadExecutionMode: a run option with no reading is rejected
// up front, in the flags' own names; -engine-threads is a flag no more.
func TestExitOneOnBadExecutionMode(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig4", "-epoch-cycles", "-2"}, "-epoch-cycles -2"},
		{[]string{"-exp", "fig4", "-engine-threads", "2"}, "flag provided but not defined"},
	} {
		code, _, stderr := runSweep(t, tc.args...)
		if code != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit = %d, want 1 and stderr mentioning %q:\n%s", tc.args, code, tc.want, stderr)
		}
	}
}

func TestExitOneOnUnknownApp(t *testing.T) {
	code, _, stderr := runSweep(t, "-exp", "fig4", "-apps", "NOPE")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr)
	}
}

// TestExitTwoOnFailedJobs: an unmeetable per-job deadline makes every
// fig4 simulation fail; the sweep completes, renders the (empty) figure
// and exits 2 with a failure report.
func TestExitTwoOnFailedJobs(t *testing.T) {
	code, out, stderr := runSweep(t,
		"-exp", "fig4", "-apps", "BFS", "-scale", "0.1", "-job-timeout", "1ns")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "Figure 4") {
		t.Errorf("figure not rendered:\n%s", out)
	}
	if !strings.Contains(stderr, "job(s) failed") || !strings.Contains(stderr, "BFS") {
		t.Errorf("failure report missing:\n%s", stderr)
	}
}

// TestAppsListTolerant: -apps with padding and a trailing comma still
// selects the named apps — the bare strings.Split turned "BFS," into
// ["BFS", ""] and the phantom empty name failed the whole sweep.
func TestAppsListTolerant(t *testing.T) {
	code, out, stderr := runSweep(t,
		"-exp", "fig4", "-apps", " BFS , GEMM ,", "-scale", "0.1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	for _, app := range []string{"BFS", "GEMM"} {
		if !strings.Contains(out, app) {
			t.Errorf("figure missing %s:\n%s", app, out)
		}
	}
}

// TestAppsListAllEmpty: an -apps value that reduces to nothing falls back
// to the full catalog rather than running a zero-app sweep; table1 keeps
// the test fast while exercising the flag path.
func TestAppsListAllEmpty(t *testing.T) {
	code, _, stderr := runSweep(t, "-exp", "table1", "-apps", " , ,")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
}

// TestTraceOutLevelOffWarns: -trace-out with -trace-level off writes no
// file; the combination must be called out instead of silently doing
// nothing.
func TestTraceOutLevelOffWarns(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	code, _, stderr := runSweep(t,
		"-exp", "table1", "-trace-out", path, "-trace-level", "off")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "warning") || !strings.Contains(stderr, "trace-level") {
		t.Errorf("no warning about the ignored -trace-out:\n%s", stderr)
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("a trace file was written despite -trace-level off")
	}
}

// TestCanceledContext: a canceled sweep context is an operational failure,
// not a silent success.
func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errw strings.Builder
	code := realMain(ctx, []string{"-exp", "fig4", "-apps", "BFS", "-scale", "0.1"}, &out, &errw)
	if code == 0 {
		t.Fatalf("canceled sweep exited 0; stdout:\n%s", out.String())
	}
}
