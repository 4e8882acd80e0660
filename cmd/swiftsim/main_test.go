package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swiftsim"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = realMain(context.Background(), args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestListWorkloads(t *testing.T) {
	code, out, stderr := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	for _, name := range []string{"BFS", "GEMM", "PAGERANK", "LSTM"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list missing %s:\n%s", name, out)
		}
	}
}

// TestTinyRunStdout pins the structural lines of a small simulation's
// output. The wall-time line is the one nondeterministic line and is
// asserted only by prefix.
func TestTinyRunStdout(t *testing.T) {
	code, out, stderr := runCmd(t, "-app", "BFS", "-scale", "0.1", "-sim", "memory")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"app          BFS\n",
		"gpu          RTX2080Ti\n",
		"simulator    Swift-Sim-Memory\n",
		"cycles       ",
		"instructions ",
		"wall time    ",
		"ticked       ",
		"kernels      ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotRestoreRoundTrip drives the snapshot flags end to end: a
// run checkpoints at a mid-run kernel boundary, a second run resumes from
// the file, and both report the same cycle count as an uninterrupted run.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cyclesLine := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "cycles") {
				return line
			}
		}
		t.Fatalf("no cycles line in output:\n%s", out)
		return ""
	}

	code, base, stderr := runCmd(t, "-app", "BFS", "-scale", "0.1", "-sim", "memory")
	if code != 0 {
		t.Fatalf("baseline exit = %d, stderr:\n%s", code, stderr)
	}

	snap := filepath.Join(t.TempDir(), "mid.snap")
	code, out, stderr := runCmd(t, "-app", "BFS", "-scale", "0.1", "-sim", "memory",
		"-snapshot-at", "1", "-snapshot-out", snap)
	if code != 0 {
		t.Fatalf("snapshot run exit = %d, stderr:\n%s", code, stderr)
	}
	if cyclesLine(out) != cyclesLine(base) {
		t.Errorf("snapshotting perturbed the run:\n%s\nvs\n%s", cyclesLine(out), cyclesLine(base))
	}
	if !strings.Contains(out, "snapshot     "+snap) {
		t.Errorf("no snapshot confirmation line:\n%s", out)
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot file: %v (size %v)", err, fi)
	}

	code, out, stderr = runCmd(t, "-app", "BFS", "-scale", "0.1", "-sim", "memory",
		"-restore", snap)
	if code != 0 {
		t.Fatalf("restore exit = %d, stderr:\n%s", code, stderr)
	}
	if cyclesLine(out) != cyclesLine(base) {
		t.Errorf("restored run diverged:\n%s\nvs\n%s", cyclesLine(out), cyclesLine(base))
	}

	// A mismatched restore (different app) must fail loudly, not resume.
	if code, _, stderr = runCmd(t, "-app", "SM", "-scale", "0.1", "-sim", "memory",
		"-restore", snap); code != 1 || !strings.Contains(stderr, "snapshot") {
		t.Errorf("mismatched restore: exit %d, stderr:\n%s", code, stderr)
	}
}

func TestMetricsReport(t *testing.T) {
	code, out, _ := runCmd(t, "-app", "BFS", "-scale", "0.1", "-sim", "basic", "-metrics")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "--- metrics ---") || !strings.Contains(out, "l1.hit") {
		t.Errorf("metrics report missing:\n%s", out)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	app, err := swiftsim.GenerateWorkload("HOTSPOT", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hotspot.sgt")
	if err := swiftsim.WriteTrace(path, app); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := runCmd(t, "-trace", path, "-sim", "memory")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "app          HOTSPOT") {
		t.Errorf("trace run output wrong:\n%s", out)
	}
}

func TestExitOneOnErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"no input", nil, "one of -app or -trace"},
		{"bad flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"unknown app", []string{"-app", "NOPE"}, "NOPE"},
		{"unknown gpu", []string{"-app", "BFS", "-gpu", "GTX480"}, "unknown GPU preset"},
		{"unknown sim", []string{"-app", "BFS", "-sim", "psychic"}, "unknown simulator"},
		{"unknown hitrates", []string{"-app", "BFS", "-sim", "memory", "-hitrates", "x"}, "unknown hit-rate source"},
		{"missing trace", []string{"-trace", filepath.Join(t.TempDir(), "nope.sgt")}, "no such file"},
		{"engine threads flag is gone", []string{"-app", "BFS", "-engine-threads", "2"}, "flag provided but not defined"},
		{"negative epoch", []string{"-app", "BFS", "-epoch-cycles", "-2"}, "-epoch-cycles"},
		{"snapshot-at without out", []string{"-app", "BFS", "-snapshot-at", "100"}, "-snapshot-out"},
		{"missing restore file", []string{"-app", "BFS", "-restore", filepath.Join(t.TempDir(), "nope.snap")}, "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCmd(t, tc.args...)
			if code != 1 {
				t.Fatalf("exit = %d, want 1", code)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, stderr)
			}
		})
	}
}

func TestConfigFileOverridesPreset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gpu.cfg")
	cfg := "gpu.base = RTX3060\ngpu.name = MyGPU\n"
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := runCmd(t, "-app", "BFS", "-scale", "0.1", "-sim", "memory", "-config", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "gpu          MyGPU") {
		t.Errorf("config file not applied:\n%s", out)
	}
}
