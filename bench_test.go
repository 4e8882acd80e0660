// Benchmarks regenerating the paper's evaluation artifacts — one bench per
// table and figure (run them with -v to see the regenerated rows) — plus
// ablation benches for the design choices called out in DESIGN.md §6.
//
// The figure benches run the experiment harness at a reduced problem scale
// and application subset so `go test -bench=.` completes in minutes; use
// cmd/sweep for the full-size runs recorded in EXPERIMENTS.md.
package swiftsim

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/experiments"
	"swiftsim/internal/regress"
	"swiftsim/internal/runner"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// benchParams returns a reduced-cost experiment parameterization for
// benchmarking; `go test -short` shrinks it further.
func benchParams(b *testing.B) experiments.Params {
	p := experiments.Params{
		Apps:  []string{"BFS", "HOTSPOT", "NW", "GEMM", "ADI", "SM", "GRU", "PAGERANK"},
		Scale: 0.4,
	}
	if testing.Short() {
		p.Apps = p.Apps[:3]
		p.Scale = 0.15
		p.GPU = config.RTX2080Ti()
		p.GPU.NumSMs = 8
		p.GPU.MemPartitions = 4
	}
	return p
}

// BenchmarkTable1 regenerates Table I (three-GPU comparison).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(os.Stderr)
	}
}

// BenchmarkTable2 regenerates Table II (RTX 2080 Ti configuration).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(os.Stderr)
	}
}

// BenchmarkFigure4 regenerates Figure 4: per-application prediction error
// of the three simulators against the golden hardware reference, plus
// single-thread speedups over the detailed baseline.
func BenchmarkFigure4(b *testing.B) {
	p := benchParams(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Print(os.Stderr)
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5: the speedup contribution
// analysis (analytical ALU, analytical memory, parallel execution).
func BenchmarkFigure5(b *testing.B) {
	p := benchParams(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Print(os.Stderr)
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6: prediction error of the detailed
// simulator and Swift-Sim-Basic across the three GPU architectures.
func BenchmarkFigure6(b *testing.B) {
	p := benchParams(b)
	p.Apps = p.Apps[:4] // three full GPUs per app: keep the bench bounded
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Print(os.Stderr)
		}
	}
}

// BenchmarkGoldenCorpus measures one full pass over the committed golden
// regression corpus (20 apps × 3 GPU presets under Swift-Sim-Memory) —
// the cost of the drift check gating every change; see
// internal/regress and the `make verify` target.
func BenchmarkGoldenCorpus(b *testing.B) {
	corpus := regress.DefaultCorpus()
	if testing.Short() {
		corpus.Apps = corpus.Apps[:4]
		corpus.GPUs = corpus.GPUs[:1]
	}
	cases := corpus.Cases()
	var insts uint64
	for i := 0; i < b.N; i++ {
		insts = 0
		for _, cs := range cases {
			res, err := cs.Run()
			if err != nil {
				b.Fatalf("%s on %s: %v", cs.App, cs.GPU.Name, err)
			}
			insts += res.Instructions
		}
	}
	b.ReportMetric(float64(len(cases))*float64(b.N)/b.Elapsed().Seconds(), "cases/s")
	b.ReportMetric(float64(insts), "warp-insts")
}

// benchGPU returns the GPU used by the ablation benches.
func benchGPU() config.GPU {
	g := config.RTX2080Ti()
	g.NumSMs = 16
	g.MemPartitions = 8
	return g
}

func runOnce(b *testing.B, app string, scale float64, gpu config.GPU, opts sim.Options) uint64 {
	b.Helper()
	w, err := workload.Generate(app, scale)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(w, gpu, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res.Cycles
}

// BenchmarkAblationScheduler sweeps the warp-scheduler policy (the
// module the paper's working example keeps cycle-accurate for design
// exploration).
func BenchmarkAblationScheduler(b *testing.B) {
	for _, pol := range []config.SchedPolicy{config.GTO, config.LRR, config.OldestFirst} {
		b.Run(pol.String(), func(b *testing.B) {
			gpu := benchGPU()
			gpu.SM.Scheduler = pol
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = runOnce(b, "BFS", 0.3, gpu, sim.Options{Kind: sim.Memory})
			}
			b.ReportMetric(float64(cycles), "gpu-cycles")
		})
	}
}

// BenchmarkAblationReplacement sweeps the L1 replacement policy — the
// flexibility the paper contrasts against LRU-only analytical cache
// models.
func BenchmarkAblationReplacement(b *testing.B) {
	for _, rep := range []config.Replacement{config.LRU, config.FIFO, config.Random} {
		b.Run(rep.String(), func(b *testing.B) {
			gpu := benchGPU()
			gpu.L1.Replacement = rep
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = runOnce(b, "SRAD", 0.3, gpu, sim.Options{Kind: sim.Basic})
			}
			b.ReportMetric(float64(cycles), "gpu-cycles")
		})
	}
}

// BenchmarkAblationHitRateSource compares Swift-Sim-Memory with hit rates
// from the functional cache simulator vs reuse-distance theory.
func BenchmarkAblationHitRateSource(b *testing.B) {
	for _, src := range []struct {
		name string
		s    sim.HitRateSource
	}{{"FunctionalCaches", sim.FunctionalCaches}, {"ReuseDistance", sim.ReuseDistance}} {
		b.Run(src.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = runOnce(b, "MVT", 0.3, benchGPU(),
					sim.Options{Kind: sim.Memory, HitRates: src.s})
			}
			b.ReportMetric(float64(cycles), "gpu-cycles")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (instructions per second) of the three configurations on one workload —
// the per-app speedup substrate of Figure 4's scatter plot.
func BenchmarkSimulatorThroughput(b *testing.B) {
	app, err := workload.Generate("SM", 0.4)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []sim.Kind{sim.Detailed, sim.Basic, sim.Memory} {
		b.Run(kind.String(), func(b *testing.B) {
			gpu := benchGPU()
			var insts uint64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(app, gpu, sim.Options{Kind: kind})
				if err != nil {
					b.Fatal(err)
				}
				insts = res.Instructions
			}
			b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "warp-insts/s")
		})
	}
}

// BenchmarkObsOff pins the observability off-path contract: with no
// tracer, a full Detailed simulation — every obs hook compiled in, all of
// them hitting the nil check — must match the untraced baseline. The
// benchmark runs in the benchcmp gate, so an accidentally hot off path
// (an allocation per request, a missed level check) regresses the gated
// time. The alloc assertion makes the cheaper half of the contract exact:
// the hook sequence itself must not allocate at all.
func BenchmarkObsOff(b *testing.B) {
	var tr *Tracer // the off path: Config.Trace left nil
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled(TraceModule) {
			b.Fatal("nil tracer reported enabled")
		}
		tr.Span(TraceRequest, "mem", "l1", 0, 0, 1)
		tr.Counter(TraceModule, "active_sms", 0, 0, 1)
		tr.Instant(TraceKernel, "job", "launch", 0, 0)
	})
	if allocs != 0 {
		b.Fatalf("off-path trace hooks allocated %.1f times per run; want 0", allocs)
	}
	app, err := workload.Generate("BFS", 0.3)
	if err != nil {
		b.Fatal(err)
	}
	gpu := benchGPU()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(app, gpu, sim.Options{Kind: sim.Detailed})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "gpu-cycles")
}

// BenchmarkRunnerScaling measures sweep throughput as the worker count
// grows — the paper's Figure 5 axis. The job list is a fixed mix of
// applications and simulator kinds so each thread count does identical
// work; jobs/s is the comparable metric across sub-benchmarks.
func BenchmarkRunnerScaling(b *testing.B) {
	apps := []string{"BFS", "HOTSPOT", "NW", "GEMM", "ADI", "SM", "GRU", "PAGERANK"}
	gpu := benchGPU()
	var jobs []runner.Job
	for _, name := range apps {
		w, err := workload.Generate(name, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []sim.Kind{sim.Basic, sim.Memory} {
			jobs = append(jobs, runner.Job{App: w, GPU: gpu, Opts: sim.Options{Kind: kind}})
		}
	}
	threadCounts := []int{1, 2, 4, runtime.NumCPU()}
	for _, threads := range threadCounts {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, o := range runner.RunAll(jobs, threads) {
					if o.Err != nil {
						b.Fatal(o.Err)
					}
				}
			}
			b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkEngineRelaxed measures the relaxed-sync epoch mode: one Detailed
// simulation of a compute-heavy workload, sweeping the epoch length k. k=1
// is the exact run (cycles cross-checked against the default run); k=8 and
// k=64 stage the SMs' side effects over longer passes, which costs bounded
// cycle drift — pinned by the error-envelope fixtures in internal/regress —
// and, on one goroutine, buys no wall-clock time. The k=1/k=8 pair has no
// floor; it is the record the decision on EpochCycles will cite.
func BenchmarkEngineRelaxed(b *testing.B) {
	app, err := workload.Generate("GEMM", 4.0)
	if err != nil {
		b.Fatal(err)
	}
	gpu := benchGPU()
	base, err := sim.Run(app, gpu, sim.Options{Kind: sim.Detailed})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(app, gpu, sim.Options{Kind: sim.Detailed, EpochCycles: k})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			if k == 1 && cycles != base.Cycles {
				b.Fatalf("EpochCycles=1 cycles %d != serial %d", cycles, base.Cycles)
			}
			b.ReportMetric(float64(cycles), "gpu-cycles")
		})
	}
}

// BenchmarkEngineSampled measures the sampled-execution mode end to end: a
// corpus of repeat-heavy applications (iterative GRU and LSTM, where
// launch memoization replays most kernels, each surviving launch block-
// sampled) under Swift-Sim-Basic on a 4-SM GPU, exact vs. default
// sampling. The corpus=off/corpus=on pair feeds the `make benchcmp`
// sampling speedup floor. Accuracy of the same operating point is
// pinned separately by the sample envelopes in internal/regress.
func BenchmarkEngineSampled(b *testing.B) {
	corpus := []struct {
		name  string
		scale float64
	}{{"GRU", 2}, {"LSTM", 2}}
	gpu := config.RTX2080Ti()
	gpu.NumSMs = 4
	gpu.MemPartitions = 2
	apps := make([]*trace.App, len(corpus))
	for i, c := range corpus {
		w, err := workload.Generate(c.name, c.scale)
		if err != nil {
			b.Fatal(err)
		}
		apps[i] = w
	}
	for _, mode := range []struct {
		name string
		s    sim.Sampling
	}{{"corpus=off", sim.Sampling{}}, {"corpus=on", sim.Sampling{Enabled: true}}} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = 0
				for j, w := range apps {
					res, err := sim.Run(w, gpu, sim.Options{Kind: sim.Basic, Sampling: mode.s})
					if err != nil {
						b.Fatal(err)
					}
					if res.Sampled != mode.s.Enabled {
						b.Fatalf("%s: Sampled=%t, want %t", corpus[j].name, res.Sampled, mode.s.Enabled)
					}
					cycles += res.Cycles
				}
			}
			b.ReportMetric(float64(cycles), "gpu-cycles")
		})
	}
}

// BenchmarkAblationTopology swaps the interconnect module between crossbar
// and ring — the NoC-exploration flexibility the paper contrasts against
// queueing-model NoCs.
func BenchmarkAblationTopology(b *testing.B) {
	for _, topo := range []string{"crossbar", "ring"} {
		b.Run(topo, func(b *testing.B) {
			gpu := benchGPU()
			gpu.NoCTopology = topo
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = runOnce(b, "SM", 0.3, gpu, sim.Options{Kind: sim.Detailed})
			}
			b.ReportMetric(float64(cycles), "gpu-cycles")
		})
	}
}

// BenchmarkAblationHybridDepth compares the four hybridization depths on
// one workload: how much speed each additional analytical module buys.
func BenchmarkAblationHybridDepth(b *testing.B) {
	for _, kind := range []sim.Kind{sim.Detailed, sim.Basic, sim.L2Hybrid, sim.Memory} {
		b.Run(kind.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = runOnce(b, "GRU", 0.3, benchGPU(), sim.Options{Kind: kind})
			}
			b.ReportMetric(float64(cycles), "gpu-cycles")
		})
	}
}

// BenchmarkAblationSampling measures representative-block sampling:
// simulated work shrinks with the sampling fraction while extrapolated
// cycles stay in band.
func BenchmarkAblationSampling(b *testing.B) {
	for _, frac := range []float64{0, 0.5, 0.25} {
		name := "full"
		if frac > 0 {
			name = fmt.Sprintf("frac%.2f", frac)
		}
		b.Run(name, func(b *testing.B) {
			// A small GPU so the workload spans several waves and
			// sampling has blocks to skip.
			gpu := benchGPU()
			gpu.NumSMs = 4
			gpu.MemPartitions = 2
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = runOnce(b, "SM", 8, gpu,
					sim.Options{Kind: sim.Basic, Sampling: sim.Sampling{Enabled: frac > 0, BlockFraction: frac}})
			}
			b.ReportMetric(float64(cycles), "gpu-cycles")
		})
	}
}
