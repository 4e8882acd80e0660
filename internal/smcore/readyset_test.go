package smcore_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/regress"
	"swiftsim/internal/sim"
	"swiftsim/internal/smcore"
	"swiftsim/internal/workload"
)

// The ready set is the scan: with the oracle of export_test.go on, whole
// simulations run under every assembly that reaches a different refresh
// point, and after each SM tick and each completion every sub-core's ready
// set must equal a fresh issuable() scan of its warp slots.

const readyScale = 0.25

var readyApps = []string{"BFS", "GEMM", "HOTSPOT", "NW"}

// runChecked simulates one case at readyScale with the oracle on and fails
// on the first disagreement.
func runChecked(t *testing.T, name string, gpu config.GPU, opts sim.Options) (*sim.Result, *smcore.ReadyCheck) {
	t.Helper()
	return runCheckedAt(t, name, readyScale, gpu, opts)
}

func runCheckedAt(t *testing.T, name string, scale float64, gpu config.GPU, opts sim.Options) (*sim.Result, *smcore.ReadyCheck) {
	t.Helper()
	app, err := workload.Generate(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	rc := smcore.CheckReadySets(t)
	res, err := sim.Run(app, gpu, opts)
	if rc.Mismatch != "" {
		t.Fatalf("%s on %s: ready set differs from the scan: %s", name, gpu.Name, rc.Mismatch)
	}
	if err != nil {
		t.Fatalf("%s on %s: %v", name, gpu.Name, err)
	}
	if rc.Checks == 0 && opts.RestoreFrom == nil {
		// (A run restored from its last kernel boundary simulates nothing.)
		t.Fatalf("%s on %s: the ready-set oracle never ran", name, gpu.Name)
	}
	return res, rc
}

// TestReadySetGoldenCorpus covers the 60 golden cases under
// Swift-Sim-Memory and holds each to its fixture, so the oracle is known to
// have watched the runs the goldens pin.
func TestReadySetGoldenCorpus(t *testing.T) {
	corpus := regress.DefaultCorpus()
	if testing.Short() {
		corpus.Apps, corpus.GPUs = readyApps, corpus.GPUs[:1]
	}
	for _, cs := range corpus.Cases() {
		res, _ := runChecked(t, cs.App, cs.GPU, cs.Opts)
		want, err := os.ReadFile("../regress/" + regress.GoldenPath(cs.GPU.Name, cs.App))
		if err != nil {
			t.Fatal(err)
		}
		if got := regress.Canonical(res); !bytes.Equal(want, got) {
			t.Errorf("%s on %s drifted from its golden with the oracle on:\n%s",
				cs.App, cs.GPU.Name, regress.DiffLines(want, got, 10))
		}
	}
}

// TestReadySetAssemblies covers what Swift-Sim-Memory does not reach: the
// cycle-accurate LD/ST path (Basic), the front end's instruction buffers
// and the pipelines' refusals (Detailed), a plug-in Picker, and a relaxed
// run whose completions arrive through the fold.
func TestReadySetAssemblies(t *testing.T) {
	gpu := config.RTX2080Ti()
	for _, tc := range []struct {
		name   string
		policy config.SchedPolicy
		opts   sim.Options
	}{
		{"basic", config.GTO, sim.Options{Kind: sim.Basic}},
		{"detailed", config.GTO, sim.Options{Kind: sim.Detailed}},
		{"basic-lrr", config.LRR, sim.Options{Kind: sim.Basic}},
		{"basic-oldest", config.OldestFirst, sim.Options{Kind: sim.Basic}},
		{"picker", config.GTO, sim.Options{Kind: sim.Basic,
			Scheduler: func(int, int) smcore.Picker { return smcore.NewMemFirstPicker() }}},
		{"epoch8", config.GTO, sim.Options{Kind: sim.Basic, EpochCycles: 8}},
		{"detailed-epoch8", config.GTO, sim.Options{Kind: sim.Detailed, EpochCycles: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := gpu
			g.SM.Scheduler = tc.policy
			apps := readyApps
			if testing.Short() {
				apps = apps[:2]
			}
			for _, name := range apps {
				runChecked(t, name, g, tc.opts)
			}
		})
	}
}

// TestReadySetSnapshotRestore runs the oracle through a checkpoint and the
// run restored from it: an SM is saved with no resident block, so the
// restored sub-cores start from empty sets.
func TestReadySetSnapshotRestore(t *testing.T) {
	gpu := config.RTX2080Ti()
	for _, name := range []string{"BFS", "GEMM"} {
		opts := sim.Options{Kind: sim.L2Hybrid}
		base, _ := runChecked(t, name, gpu, opts)
		var buf bytes.Buffer
		snapOpts := opts
		snapOpts.SnapshotAt, snapOpts.SnapshotTo = base.Cycles/2, &buf
		runChecked(t, name, gpu, snapOpts)
		restOpts := opts
		restOpts.RestoreFrom = bytes.NewReader(buf.Bytes())
		rest, _ := runChecked(t, name, gpu, restOpts)
		if want, got := regress.Canonical(base), regress.Canonical(rest); !bytes.Equal(want, got) {
			t.Errorf("%s: restored run diverged:\n%s", name, regress.DiffLines(want, got, 10))
		}
	}
}

// wideApps have grids of more than 64 warps at scale 0.5.
var wideApps = []string{"HOTSPOT", "SM", "PATHFINDER", "SRAD"}

var updateWide = flag.Bool("update-wide", false, "rewrite testdata/wide_subcore_digests.txt (only from a tree whose scheduling is known good)")

// wideGPU is a configuration whose one SM has one sub-core of 128 warp
// slots, two ready-set words, and residency limits loose enough that a
// half-scale grid fills them. config accepts any MaxWarps divisible by
// SubCores, so this must schedule exactly as it did when every policy
// scanned the slot slice.
func wideGPU(policy config.SchedPolicy) config.GPU {
	g := config.RTX2080Ti()
	g.Name = "Wide128-" + policy.String()
	g.NumSMs = 1
	g.SM.SubCores = 1
	g.SM.MaxWarps = 128
	g.SM.MaxBlocks = 64
	g.SM.Registers = 1 << 20
	g.SM.SharedMemBytes = 1 << 20
	g.SM.Scheduler = policy
	return g
}

// TestReadySetWideSubCore pins the canonical digests of the 128-slot
// configuration, recorded at the commit before the ready set existed, under
// all three built-in policies, with the oracle on.
func TestReadySetWideSubCore(t *testing.T) {
	const path = "testdata/wide_subcore_digests.txt"
	var lines []string
	for _, policy := range []config.SchedPolicy{config.GTO, config.LRR, config.OldestFirst} {
		gpu := wideGPU(policy)
		if err := gpu.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, name := range wideApps {
			res, rc := runCheckedAt(t, name, 0.5, gpu, sim.Options{Kind: sim.Basic})
			if rc.MaxResident <= 64 {
				t.Errorf("%s on %s: at most %d warps resident in a sub-core; the second ready-set word was never used",
					name, gpu.Name, rc.MaxResident)
			}
			lines = append(lines, fmt.Sprintf("%s %s %x", name, gpu.Name, sha256.Sum256(regress.Canonical(res))))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateWide {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("128-slot sub-core digests moved:\n%s", regress.DiffLines(want, []byte(got), 0))
	}
}
