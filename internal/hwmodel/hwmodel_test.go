package hwmodel

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/regress"
	"swiftsim/internal/sim"
	"swiftsim/internal/workload"
)

// update rewrites testdata/cycles.txt from the current reference:
//
//	go test ./internal/hwmodel/ -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/cycles.txt from the current reference")

// goldenCyclesPath is TestGoldenCycles' fixture: one line per preset and
// app, "gpu app cycles kernel-cycles...".
var goldenCyclesPath = filepath.Join("testdata", "cycles.txt")

// TestGoldenCycles pins the reference every cycle_err_pct divides by: Run's
// Cycles and KernelCycles for the 20 apps at scale 0.25 on the three
// presets, under DefaultParams. A change that moves the reference fails
// here first.
func TestGoldenCycles(t *testing.T) {
	c := regress.DefaultCorpus()
	var got strings.Builder
	for _, gpu := range c.GPUs {
		for _, name := range c.Apps {
			app, err := workload.Generate(name, c.Scale)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(app, gpu, DefaultParams())
			if err != nil {
				t.Fatalf("%s on %s: %v", name, gpu.Name, err)
			}
			fmt.Fprintf(&got, "%s %s %d %v\n", gpu.Name, name, res.Cycles, res.KernelCycles)
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenCyclesPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCyclesPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenCyclesPath)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	if d := regress.DiffLines(want, []byte(got.String()), 20); d != "" {
		t.Errorf("reference cycles drifted from %s (regenerate with -update only if intended):\n%s", goldenCyclesPath, d)
	}
}

func smallGPU() config.GPU {
	g := config.RTX2080Ti()
	g.NumSMs = 4
	g.MemPartitions = 2
	return g
}

func TestGoldenExceedsDetailed(t *testing.T) {
	// Every extra effect adds time: the golden reference must predict
	// more cycles than the plain detailed simulator on every app.
	gpu := smallGPU()
	for _, name := range []string{"BFS", "GEMM", "GRU"} {
		app, err := workload.Generate(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		hw, err := Run(app, gpu, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		det, err := sim.Run(app, gpu, sim.Options{Kind: sim.Detailed})
		if err != nil {
			t.Fatal(err)
		}
		if hw.Cycles <= det.Cycles {
			t.Errorf("%s: golden %d <= detailed %d", name, hw.Cycles, det.Cycles)
		}
		// But not absurdly more: the gap is the realistic error band.
		if float64(hw.Cycles) > 2.5*float64(det.Cycles) {
			t.Errorf("%s: golden %d implausibly above detailed %d", name, hw.Cycles, det.Cycles)
		}
	}
}

func TestGoldenDeterministic(t *testing.T) {
	gpu := smallGPU()
	app, err := workload.Generate("SSSP", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(app, gpu, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(app, gpu, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("golden model nondeterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestGoldenNamesGPU(t *testing.T) {
	gpu := smallGPU()
	app, _ := workload.Generate("WC", 0.1)
	hw, err := Run(app, gpu, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if hw.GPUName != gpu.Name+"-hw" {
		t.Errorf("GPUName = %q, want %q", hw.GPUName, gpu.Name+"-hw")
	}
}

func TestEffectKnobs(t *testing.T) {
	gpu := smallGPU()
	app, _ := workload.Generate("GRU", 0.1) // many kernels: launch-sensitive
	base := Params{LatencyScale: 1.0}
	baseRes, err := Run(app, gpu, base)
	if err != nil {
		t.Fatal(err)
	}
	knobs := []struct {
		name string
		mut  func(*Params)
	}{
		{"latency scale", func(p *Params) { p.LatencyScale = 1.3 }},
		{"launch overhead", func(p *Params) { p.KernelLaunchCycles = 5000 }},
		{"icache warmup", func(p *Params) { p.ICacheMissCycles = 50 }},
		{"tlb", func(p *Params) { p.TLBMissCycles = 500; p.PageBytes = 64 << 10 }},
		{"refresh", func(p *Params) { p.RefreshFraction = 0.2 }},
	}
	for _, k := range knobs {
		p := base
		k.mut(&p)
		res, err := Run(app, gpu, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles <= baseRes.Cycles {
			t.Errorf("%s: no effect (%d vs base %d)", k.name, res.Cycles, baseRes.Cycles)
		}
	}
}

func TestKernelLaunchCycles(t *testing.T) {
	// Launch cost is exact: kernels × KernelLaunchCycles on top of the
	// same run without it.
	gpu := smallGPU()
	app, _ := workload.Generate("GRU", 0.1)
	base, err := Run(app, gpu, Params{})
	if err != nil {
		t.Fatal(err)
	}
	withLaunch, err := Run(app, gpu, Params{KernelLaunchCycles: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := withLaunch.Cycles-base.Cycles, uint64(len(app.Kernels))*10_000; got != want {
		t.Errorf("launch delta = %d, want %d", got, want)
	}
}

func TestTLBCostCountsUniquePages(t *testing.T) {
	gpu := smallGPU()
	p := Params{TLBMissCycles: 100, PageBytes: 64 << 10}
	gather, _ := workload.Generate("PAGERANK", 0.1) // scattered: many pages
	stream, _ := workload.Generate("GAUSSIAN", 0.1) // compact footprint
	if tlbCost(gather, gpu, p) <= tlbCost(stream, gpu, p) {
		t.Error("scattered app must touch more pages than compact app")
	}
	// Disabled knobs return zero.
	if tlbCost(gather, gpu, Params{}) != 0 {
		t.Error("zero params must cost nothing")
	}
}

func TestICacheWarmupScalesWithCode(t *testing.T) {
	p := DefaultParams()
	small, _ := workload.Generate("WC", 0.1)   // one kernel
	large, _ := workload.Generate("LSTM", 1.0) // several long kernels
	if icacheWarmup(large, p) <= icacheWarmup(small, p) {
		t.Error("more static code must warm up longer")
	}
}

// TestCanonicalCyclesAgree: a reference result states one cycle count, so
// its canonical cycles line and its gpu.cycles metric agree.
func TestCanonicalCyclesAgree(t *testing.T) {
	app, err := workload.Generate("GRU", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(app, smallGPU(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var cycles, metric string
	for _, l := range strings.Split(string(regress.Canonical(res)), "\n") {
		if v, ok := strings.CutPrefix(l, "cycles "); ok {
			cycles = v
		} else if v, ok := strings.CutPrefix(l, "gpu.cycles "); ok {
			metric = v
		}
	}
	if cycles == "" || cycles != metric {
		t.Errorf("canonical reference result says cycles %q and gpu.cycles %q", cycles, metric)
	}
}

func TestRunRejectsInvalidInput(t *testing.T) {
	app, _ := workload.Generate("BFS", 0.1)
	bad := smallGPU()
	bad.NumSMs = 0
	if _, err := Run(app, bad, DefaultParams()); err == nil {
		t.Error("invalid GPU accepted")
	}
}
