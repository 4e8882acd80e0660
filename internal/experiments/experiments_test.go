package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/obs"
	"swiftsim/internal/sim"
)

// smallParams keeps harness tests fast: few apps, small scale, small GPU.
func smallParams() Params {
	gpu := config.RTX2080Ti()
	gpu.NumSMs = 8
	gpu.MemPartitions = 4
	return Params{
		Apps:    []string{"BFS", "GEMM", "SM"},
		Scale:   0.15,
		GPU:     gpu,
		Threads: 2,
	}
}

func TestTable1(t *testing.T) {
	var sb strings.Builder
	Table1(&sb)
	out := sb.String()
	for _, want := range []string{"68", "4352", "5.5MB", "28", "3584", "3.0MB", "82", "10496", "6.0MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	var sb strings.Builder
	Table2(&sb)
	out := sb.String()
	for _, want := range []string{"68", "GTO", "INT:16x, SP:16x, DP:0.5x, SFU:4x",
		"write-through", "write-back", "22 memory partitions, 227 cycles", "256 MSHR", "192 MSHR"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure4Harness(t *testing.T) {
	res, err := Figure4(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.HWCycles == 0 {
			t.Errorf("%s: zero hardware cycles", row.App)
		}
		for k := 0; k < 3; k++ {
			if row.Err[k] < 0 || row.Err[k] > 2 {
				t.Errorf("%s: error[%d] = %v out of plausible range", row.App, k, row.Err[k])
			}
		}
		if row.SpeedupBasic <= 0 || row.SpeedupMemory <= 0 {
			t.Errorf("%s: non-positive speedups", row.App)
		}
	}
	// Paper shape: hybrid simulators are faster; Memory fastest.
	if res.GeoSpeedupMemory <= res.GeoSpeedupBasic {
		t.Errorf("Memory geomean speedup %.2f not above Basic %.2f",
			res.GeoSpeedupMemory, res.GeoSpeedupBasic)
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "MEAN/GEO") {
		t.Error("Print missing summary row")
	}
}

func TestFigure5Harness(t *testing.T) {
	res, err := Figure5(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.SingleThreadBasic <= 0 || res.SingleThreadMemory <= 0 {
		t.Fatal("non-positive speedups")
	}
	// Wall-clock ratios on millisecond-scale test workloads are noisy
	// (GC, co-scheduled tests); only require well-formed positive output.
	if res.TotalMemory <= 0 || res.TotalBasic <= 0 || res.ParallelMemory <= 0 {
		t.Errorf("non-positive speedup factors: %+v", res)
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "TOTAL Swift-Sim-Memory") {
		t.Error("Print missing totals")
	}
}

func TestFigure6Harness(t *testing.T) {
	p := smallParams()
	p.Apps = []string{"BFS", "SM"}
	res, err := Figure6(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2*3 {
		t.Fatalf("rows = %d, want 6 (2 apps × 3 GPUs)", len(res.Rows))
	}
	if len(res.MeanErr) != 3 {
		t.Fatalf("mean entries = %d, want 3", len(res.MeanErr))
	}
	var sb strings.Builder
	res.Print(&sb)
	for _, g := range []string{"RTX2080Ti", "RTX3060", "RTX3090"} {
		if !strings.Contains(sb.String(), g) {
			t.Errorf("Print missing %s", g)
		}
	}
}

func TestParamsFillDefaults(t *testing.T) {
	var p Params
	p.fill()
	if len(p.Apps) != 20 {
		t.Errorf("default apps = %d, want 20", len(p.Apps))
	}
	if p.Scale != 1.0 || p.GPU.Name != "RTX2080Ti" {
		t.Errorf("defaults wrong: scale=%v gpu=%s", p.Scale, p.GPU.Name)
	}
}

// TestFigure4TracesOnePidPerSimulation: each of Figure 4's simulations is
// a runner job, so under a tracer its kernel spans land on a pid of its
// own, not on the experiment tracer's.
func TestFigure4TracesOnePidPerSimulation(t *testing.T) {
	p := smallParams()
	ring := obs.NewRing(0)
	p.Trace = obs.New(ring, obs.KernelLevel)
	res, err := Figure4(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failures: %v", res.Failed)
	}
	pids := map[int32]bool{}
	for _, ev := range ring.Events() {
		if ev.Cat == "kernel" && ev.Ph == obs.PhaseSpan {
			pids[ev.Pid] = true
		}
	}
	if want := 3 * len(p.Apps); len(pids) != want || pids[p.Trace.Pid()] {
		t.Errorf("kernel spans on pids %v, want %d pids other than the tracer's %d", pids, want, p.Trace.Pid())
	}
}

func TestFigure4UnknownApp(t *testing.T) {
	p := smallParams()
	p.Apps = []string{"NOPE"}
	if _, err := Figure4(p); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestKindIndexing(t *testing.T) {
	// Fig4Row arrays are indexed by sim.Kind; the constants must stay
	// 0,1,2.
	if sim.Detailed != 0 || sim.Basic != 1 || sim.Memory != 2 {
		t.Fatal("sim.Kind constants changed; Fig4Row indexing breaks")
	}
}

// TestFigure4PartialResults: an unmeetable per-job deadline fails every
// simulation; the figure still renders (from an empty subset) and every
// failure is recorded with its stage.
func TestFigure4PartialResults(t *testing.T) {
	p := smallParams()
	p.JobTimeout = time.Nanosecond
	res, err := Figure4(p)
	if err != nil {
		t.Fatalf("Figure4 must not abort on per-job failures: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d, want 0 (every job timed out)", len(res.Rows))
	}
	if len(res.Failed) != len(p.Apps) {
		t.Fatalf("failures = %d, want %d", len(res.Failed), len(p.Apps))
	}
	for _, f := range res.Failed {
		if !errors.Is(f.Err, context.DeadlineExceeded) {
			t.Errorf("%s: cause = %v, want DeadlineExceeded", f.App, f.Err)
		}
		if f.Stage == "" || f.GPU == "" {
			t.Errorf("failure missing identity: %+v", f)
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "FAILED 3 job(s)") {
		t.Errorf("Print missing failure report:\n%s", sb.String())
	}
}

// TestFigure4Canceled: a pre-canceled experiment context records every
// application as canceled instead of simulating.
func TestFigure4Canceled(t *testing.T) {
	p := smallParams()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Ctx = ctx
	res, err := Figure4(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 || len(res.Failed) != len(p.Apps) {
		t.Fatalf("rows=%d failed=%d, want 0/%d", len(res.Rows), len(res.Failed), len(p.Apps))
	}
	for _, f := range res.Failed {
		if f.Stage != "canceled" {
			t.Errorf("%s: stage = %q, want canceled", f.App, f.Stage)
		}
	}
}

// TestFigure5Canceled: figure 5 measures wall time, so cancellation aborts
// it with an error instead of producing meaningless timings.
func TestFigure5Canceled(t *testing.T) {
	p := smallParams()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Ctx = ctx
	if _, err := Figure5(p); err == nil {
		t.Fatal("Figure5 accepted a canceled context")
	}
}

// TestFigure6PartialResults: per-job deadline failures drop rows but keep
// the figure alive with per-(GPU, app) failure records.
func TestFigure6PartialResults(t *testing.T) {
	p := smallParams()
	p.Apps = []string{"BFS"}
	p.JobTimeout = time.Nanosecond
	res, err := Figure6(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d, want 0", len(res.Rows))
	}
	if len(res.MeanErr) != 0 {
		t.Errorf("MeanErr has %d entries for an all-failed figure", len(res.MeanErr))
	}
	if len(res.Failed) != 3 { // one app × three GPUs
		t.Fatalf("failures = %d, want 3", len(res.Failed))
	}
	seen := map[string]bool{}
	for _, f := range res.Failed {
		seen[f.GPU] = true
	}
	for _, g := range []string{"RTX2080Ti", "RTX3060", "RTX3090"} {
		if !seen[g] {
			t.Errorf("no failure recorded for %s", g)
		}
	}
}

// TestFigure6PrintMeanRows pins the mean-row rendering: every MeanErr
// entry must appear (even for GPU names outside the stock preset list),
// in sorted order, so report output is deterministic and complete.
func TestFigure6PrintMeanRows(t *testing.T) {
	res := &Fig6Result{MeanErr: map[string][2]float64{
		"ZZZCustom": {0.10, 0.20},
		"AAACustom": {0.30, 0.40},
		"RTX3060":   {0.50, 0.60},
	}}
	var sb strings.Builder
	res.Print(&sb)
	out := sb.String()
	ia := strings.Index(out, "AAACustom")
	ir := strings.Index(out, "RTX3060")
	iz := strings.Index(out, "ZZZCustom")
	if ia < 0 || ir < 0 || iz < 0 {
		t.Fatalf("Print dropped a MeanErr entry:\n%s", out)
	}
	if !(ia < ir && ir < iz) {
		t.Errorf("mean rows not in sorted order:\n%s", out)
	}
	var sb2 strings.Builder
	res.Print(&sb2)
	if sb2.String() != out {
		t.Error("repeated Print produced different output")
	}
}
