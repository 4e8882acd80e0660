// Package experiments reproduces the evaluation artifacts of the paper:
// Table I (GPU comparison), Table II (RTX 2080 Ti configuration), Figure 4
// (per-application prediction error and speedup on the RTX 2080 Ti),
// Figure 5 (speedup contribution analysis), and Figure 6 (prediction error
// across three GPU architectures).
//
// Real-hardware cycle counts are supplied by the golden reference model in
// internal/hwmodel (see DESIGN.md for the substitution rationale), and the
// Accel-Sim baseline by the fully cycle-accurate Detailed configuration.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/hwmodel"
	"swiftsim/internal/obs"
	"swiftsim/internal/runner"
	"swiftsim/internal/sim"
	"swiftsim/internal/stats"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// Params configures an experiment run.
type Params struct {
	// Apps lists the applications to run (nil = the full 20-app
	// catalog).
	Apps []string
	// Scale is the workload problem scale (0 = 1.0).
	Scale float64
	// GPU is the hardware configuration (zero value = RTX 2080 Ti).
	GPU config.GPU
	// Threads is the worker count for the sweeps that run jobs in
	// parallel: the parallel phase of Figure 5 and the per-GPU sweeps of
	// Figure 6 (0 = NumCPU). Figure 4 is unaffected — its speedups are
	// single-thread wall-clock measurements, so it always runs serially.
	Threads int
	// Defaults is overlaid under every simulation of the experiment
	// (sim.Options.WithDefaults): EpochCycles relaxes the SMs' lockstep with
	// the memory system, and an enabled Sampling makes reported cycles
	// include analytical extrapolation, so figure errors measure the
	// sampling trade directly. Figure 4 pins its simulations exact — its
	// columns are single-thread wall clocks — and takes only the sampling
	// default.
	Defaults sim.Options
	// Ctx cancels the whole experiment (nil = context.Background).
	Ctx context.Context
	// JobTimeout bounds each simulation's wall-clock time (0 = none). A
	// job exceeding it is recorded as a Failure; the figure renders from
	// the remaining jobs.
	JobTimeout time.Duration
	// Trace is the observability handle threaded into every simulation of
	// the experiment (nil records nothing). Every simulation is a runner
	// job and records on a per-job tracer derived from it; cmd/sweep owns
	// the recorder behind it and must close it on every exit path so
	// partial traces stay well-formed.
	Trace *obs.Tracer
}

// Failure identifies one failed simulation within an experiment. Figures
// render from the successful subset; failures are carried alongside so
// callers (cmd/sweep) can report them and exit non-zero.
type Failure struct {
	// GPU and App identify the job; Stage names the simulator or model
	// that failed ("hwmodel", "Detailed", "Swift-Sim-Memory", ...).
	GPU   string
	App   string
	Stage string
	Err   error
}

func (f Failure) String() string {
	return fmt.Sprintf("%s/%s [%s]: %v", f.GPU, f.App, f.Stage, f.Err)
}

// ctx returns the experiment-wide context.
func (p *Params) ctx() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

func (p *Params) fill() {
	if len(p.Apps) == 0 {
		p.Apps = workload.Names()
	}
	if p.Scale <= 0 {
		p.Scale = 1.0
	}
	if p.GPU.Name == "" {
		p.GPU = config.RTX2080Ti()
	}
}

func (p *Params) apps() ([]*trace.App, error) {
	apps := make([]*trace.App, len(p.Apps))
	for i, name := range p.Apps {
		app, err := workload.Generate(name, p.Scale)
		if err != nil {
			return nil, err
		}
		apps[i] = app
	}
	return apps, nil
}

// ---------------------------------------------------------------------------
// Tables

// Table1 writes the three-GPU comparison of Table I.
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table I: comparison of three NVIDIA GPUs")
	fmt.Fprintf(w, "%-20s %12s %10s %10s\n", "NVIDIA GPUs", "RTX 2080 Ti", "RTX 3060", "RTX 3090")
	gpus := []config.GPU{config.RTX2080Ti(), config.RTX3060(), config.RTX3090()}
	row := func(label string, f func(config.GPU) string) {
		fmt.Fprintf(w, "%-20s %12s %10s %10s\n", label, f(gpus[0]), f(gpus[1]), f(gpus[2]))
	}
	row("SMs", func(g config.GPU) string { return fmt.Sprint(g.NumSMs) })
	row("CUDA Cores", func(g config.GPU) string { return fmt.Sprint(g.CUDACores()) })
	row("L2 Cache", func(g config.GPU) string {
		return fmt.Sprintf("%.1fMB", float64(g.L2TotalBytes())/(1<<20))
	})
	row("Mem partitions", func(g config.GPU) string { return fmt.Sprint(g.MemPartitions) })
}

// Table2 writes the RTX 2080 Ti configuration of Table II.
func Table2(w io.Writer) {
	g := config.RTX2080Ti()
	fmt.Fprintln(w, "Table II: NVIDIA RTX 2080 Ti GPU configuration")
	p := func(k, v string) { fmt.Fprintf(w, "  %-22s %s\n", k, v) }
	p("# SMs", fmt.Sprint(g.NumSMs))
	p("# Sub-Cores/SM", fmt.Sprint(g.SM.SubCores))
	p("Warp Scheduler", fmt.Sprintf("%dx, %s", g.SM.SchedulersPerSubCore, g.SM.Scheduler))
	dp := fmt.Sprintf("%d", g.SM.DPLanes)
	if g.SM.DPLanesHalf {
		dp = "0.5"
	}
	p("Exec Units", fmt.Sprintf("INT:%dx, SP:%dx, DP:%sx, SFU:%dx",
		g.SM.IntLanes, g.SM.SPLanes, dp, g.SM.SFULanes))
	p("LD/ST Units", fmt.Sprintf("%dx", g.SM.LDSTLanes))
	p("L1 in SM", fmt.Sprintf("sectored, write-through, %d banks, %dB/line, %dB/sector, %d MSHR, %d max merge, %s, %d cycles",
		g.L1.Banks, g.L1.LineBytes, g.L1.SectorBytes, g.L1.MSHREntries, g.L1.MSHRMaxMerge, g.L1.Replacement, g.L1.HitLatency))
	p("L2 Cache", fmt.Sprintf("sectored, write-back, %dB/line, %dB/sector, %d MSHR, %d max merge, %s, %d cycles",
		g.L2.LineBytes, g.L2.SectorBytes, g.L2.MSHREntries, g.L2.MSHRMaxMerge, g.L2.Replacement, g.L2.HitLatency))
	p("Memory", fmt.Sprintf("%d memory partitions, %d cycles", g.MemPartitions, g.DRAMLatency))
}

// ---------------------------------------------------------------------------
// Figure 4

// Fig4Row is one application's bar (errors) and scatter points (speedups)
// of Figure 4.
type Fig4Row struct {
	App      string
	HWCycles uint64
	// Indexed by sim.Kind: Detailed, Basic, Memory.
	Cycles [3]uint64
	Err    [3]float64
	Wall   [3]time.Duration
	// ProfileWall is the portion of Wall spent extracting hit rates
	// (non-zero only for Swift-Sim-Memory). Wall stays inclusive of it,
	// matching the paper's end-to-end speedup accounting (§IV).
	ProfileWall [3]time.Duration
	// Speedups of Basic and Memory over Detailed (single thread).
	SpeedupBasic  float64
	SpeedupMemory float64
}

// Fig4Result aggregates Figure 4.
type Fig4Result struct {
	Rows []Fig4Row
	// MeanErr is the arithmetic-mean prediction error per simulator.
	MeanErr [3]float64
	// Geometric-mean single-thread speedups over Detailed. Non-positive
	// speedups (failed or zero-wall jobs) are skipped; SpeedupsSkipped
	// counts them.
	GeoSpeedupBasic  float64
	GeoSpeedupMemory float64
	SpeedupsSkipped  int
	// Failed lists the applications excluded from the table because the
	// hardware model or one of the simulators failed on them.
	Failed []Failure
}

// Figure4 runs every application through the golden hardware model and the
// three simulator configurations on the RTX 2080 Ti (or p.GPU), computing
// cycle-prediction errors and single-thread speedups. Applications whose
// jobs fail are dropped from the table and recorded in Failed; the figure
// renders from the successful subset.
func Figure4(p Params) (*Fig4Result, error) {
	p.fill()
	apps, err := p.apps()
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{}
	var errSum [3]float64
	var spBasic, spMem []float64
	// Each simulation is one runner job, numbered by app and kind, so it
	// has the runner's panic isolation and its own trace pid.
	kinds := []sim.Kind{sim.Detailed, sim.Basic, sim.Memory}
	ropts := runner.Options{JobTimeout: p.JobTimeout, Trace: p.Trace, Defaults: p.Defaults}
	start := time.Now()
	for i, app := range apps {
		if cerr := p.ctx().Err(); cerr != nil {
			res.Failed = append(res.Failed, Failure{GPU: p.GPU.Name, App: app.Name, Stage: "canceled", Err: cerr})
			continue
		}
		hw, err := hwmodel.Run(app, p.GPU, hwmodel.DefaultParams())
		if err != nil {
			res.Failed = append(res.Failed, Failure{GPU: p.GPU.Name, App: app.Name, Stage: "hwmodel", Err: err})
			continue
		}
		row := Fig4Row{App: app.Name, HWCycles: hw.Cycles}
		ok := true
		for k, kind := range kinds {
			job := runner.Job{App: app, GPU: p.GPU, Opts: sim.Options{Kind: kind, EpochCycles: 1}}
			o := runner.RunJob(p.ctx(), 0, i*len(kinds)+k, job, start, &ropts)
			if o.Err != nil {
				res.Failed = append(res.Failed, Failure{GPU: p.GPU.Name, App: app.Name, Stage: kind.String(), Err: simErr(o.Err)})
				ok = false
				break
			}
			r := o.Result
			row.Cycles[kind] = r.Cycles
			row.Err[kind] = stats.RelError(float64(r.Cycles), float64(hw.Cycles))
			row.Wall[kind] = r.Wall
			row.ProfileWall[kind] = r.ProfileWall
		}
		if !ok {
			continue
		}
		row.SpeedupBasic = stats.Speedup(row.Wall[sim.Detailed].Seconds(), row.Wall[sim.Basic].Seconds())
		row.SpeedupMemory = stats.Speedup(row.Wall[sim.Detailed].Seconds(), row.Wall[sim.Memory].Seconds())
		for k := 0; k < 3; k++ {
			errSum[k] += row.Err[k]
		}
		spBasic = append(spBasic, row.SpeedupBasic)
		spMem = append(spMem, row.SpeedupMemory)
		res.Rows = append(res.Rows, row)
	}
	for k := 0; k < 3; k++ {
		if len(res.Rows) > 0 {
			res.MeanErr[k] = errSum[k] / float64(len(res.Rows))
		}
	}
	var skB, skM int
	res.GeoSpeedupBasic, skB = stats.GeomeanSkipNonPositive(spBasic)
	res.GeoSpeedupMemory, skM = stats.GeomeanSkipNonPositive(spMem)
	res.SpeedupsSkipped = skB + skM
	return res, nil
}

// Print writes the Figure 4 table (and any failures beneath it).
func (r *Fig4Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 4: prediction error and speedup vs the detailed baseline (RTX 2080 Ti)")
	fmt.Fprintf(w, "%-10s %12s | %8s %8s %8s | %9s %9s\n",
		"App", "HW cycles", "errDet", "errBasic", "errMem", "spBasic", "spMem")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %12d | %8s %8s %8s | %8.1fx %8.1fx\n",
			row.App, row.HWCycles,
			stats.Pct(row.Err[sim.Detailed]), stats.Pct(row.Err[sim.Basic]), stats.Pct(row.Err[sim.Memory]),
			row.SpeedupBasic, row.SpeedupMemory)
	}
	fmt.Fprintf(w, "%-10s %12s | %8s %8s %8s | %8.1fx %8.1fx\n",
		"MEAN/GEO", "",
		stats.Pct(r.MeanErr[sim.Detailed]), stats.Pct(r.MeanErr[sim.Basic]), stats.Pct(r.MeanErr[sim.Memory]),
		r.GeoSpeedupBasic, r.GeoSpeedupMemory)
	printFailures(w, r.Failed)
}

// printFailures appends a failure report beneath a figure.
func printFailures(w io.Writer, failed []Failure) {
	if len(failed) == 0 {
		return
	}
	fmt.Fprintf(w, "FAILED %d job(s); figure rendered from the successful subset:\n", len(failed))
	for _, f := range failed {
		fmt.Fprintf(w, "  %s\n", f)
	}
}

// ---------------------------------------------------------------------------
// Figure 5

// Fig5Result is the speedup contribution analysis of Figure 5.
type Fig5Result struct {
	// Single-thread geometric-mean speedups over the Detailed baseline.
	SingleThreadBasic  float64
	SingleThreadMemory float64
	// MemoryOverBasic is the extra factor from the analytical memory
	// model.
	MemoryOverBasic float64
	// Parallel speedups of the whole-suite wall time (1 thread vs
	// Threads workers), per configuration.
	ParallelBasic  float64
	ParallelMemory float64
	// Total speedups over single-thread Detailed including parallelism.
	TotalBasic  float64
	TotalMemory float64
	// Threads actually used, and the host's logical CPUs and GOMAXPROCS
	// they ran on.
	Threads, NumCPU, GOMAXPROCS int
	// Failed lists jobs that errored during any measurement phase. Wall
	// times (and hence speedups) cover the successful subset.
	Failed []Failure
}

// Figure5 reproduces the contribution analysis: hybrid-modeling speedup at
// one thread, then the additional factor from running applications in
// parallel. Each Memory pass, single-thread and parallel, starts with cold
// profile memos, so its wall time holds the hit-rate profiling
// Swift-Sim-Memory pays, whatever ran before it in the process, and the
// parallel factor compares two passes in the same state. A trace's digest
// and validity are kept on the trace, which every pass shares, so no pass
// hashes or validates it again. Failed
// jobs are recorded in Failed and excluded from the measurements rather
// than aborting the figure.
func Figure5(p Params) (*Fig5Result, error) {
	p.fill()
	apps, err := p.apps()
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{Threads: p.Threads, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if res.Threads <= 0 {
		res.Threads = defaultThreads()
	}
	mkJobs := func(kind sim.Kind) []runner.Job {
		jobs := make([]runner.Job, len(apps))
		for i, app := range apps {
			jobs[i] = runner.Job{App: app, GPU: p.GPU, Opts: sim.Options{Kind: kind}}
		}
		return jobs
	}
	// suiteWall measures the wall time of one sweep, summing only the
	// successful jobs' contribution (the sweep itself runs to completion;
	// failures are recorded, not fatal). A Memory sweep profiles cold.
	suiteWall := func(kind sim.Kind, threads int) (time.Duration, error) {
		if kind == sim.Memory {
			sim.FlushMemos()
		}
		start := time.Now()
		outs := runner.Run(mkJobs(kind), threads, runner.Options{
			Ctx: p.Ctx, JobTimeout: p.JobTimeout, Trace: p.Trace, Defaults: p.Defaults,
		})
		for i, o := range outs {
			if o.Err != nil {
				res.Failed = append(res.Failed, Failure{
					GPU: p.GPU.Name, App: apps[i].Name,
					Stage: fmt.Sprintf("%v@%dthr", kind, threads), Err: o.Err,
				})
			}
		}
		if cerr := p.ctx().Err(); cerr != nil {
			return 0, fmt.Errorf("figure 5 canceled: %w", cerr)
		}
		return time.Since(start), nil
	}

	wallDet1, err := suiteWall(sim.Detailed, 1)
	if err != nil {
		return nil, err
	}
	wallBasic1, err := suiteWall(sim.Basic, 1)
	if err != nil {
		return nil, err
	}
	wallMem1, err := suiteWall(sim.Memory, 1)
	if err != nil {
		return nil, err
	}
	wallBasicN, err := suiteWall(sim.Basic, res.Threads)
	if err != nil {
		return nil, err
	}
	wallMemN, err := suiteWall(sim.Memory, res.Threads)
	if err != nil {
		return nil, err
	}

	res.SingleThreadBasic = stats.Speedup(wallDet1.Seconds(), wallBasic1.Seconds())
	res.SingleThreadMemory = stats.Speedup(wallDet1.Seconds(), wallMem1.Seconds())
	res.MemoryOverBasic = stats.Speedup(wallBasic1.Seconds(), wallMem1.Seconds())
	res.ParallelBasic = stats.Speedup(wallBasic1.Seconds(), wallBasicN.Seconds())
	res.ParallelMemory = stats.Speedup(wallMem1.Seconds(), wallMemN.Seconds())
	res.TotalBasic = stats.Speedup(wallDet1.Seconds(), wallBasicN.Seconds())
	res.TotalMemory = stats.Speedup(wallDet1.Seconds(), wallMemN.Seconds())
	return res, nil
}

// Print writes the Figure 5 decomposition.
func (r *Fig5Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: contribution analysis of speedup over the detailed baseline")
	fmt.Fprintf(w, "  single-thread Swift-Sim-Basic          %6.1fx\n", r.SingleThreadBasic)
	fmt.Fprintf(w, "  + analytical memory (Memory vs Basic)  %6.1fx\n", r.MemoryOverBasic)
	fmt.Fprintf(w, "  = single-thread Swift-Sim-Memory       %6.1fx\n", r.SingleThreadMemory)
	fmt.Fprintf(w, "  %d threads on %d CPUs, GOMAXPROCS %d; each Memory pass profiles cold\n", r.Threads, r.NumCPU, r.GOMAXPROCS)
	fmt.Fprintf(w, "  parallel factor (%2d threads) Basic     %6.1fx\n", r.Threads, r.ParallelBasic)
	fmt.Fprintf(w, "  parallel factor (%2d threads) Memory    %6.1fx\n", r.Threads, r.ParallelMemory)
	fmt.Fprintf(w, "  TOTAL Swift-Sim-Basic                  %6.1fx\n", r.TotalBasic)
	fmt.Fprintf(w, "  TOTAL Swift-Sim-Memory                 %6.1fx\n", r.TotalMemory)
	printFailures(w, r.Failed)
}

// ---------------------------------------------------------------------------
// Figure 6

// Fig6Row is one (GPU, application) error pair.
type Fig6Row struct {
	GPU         string
	App         string
	ErrDetailed float64
	ErrBasic    float64
}

// Fig6Result aggregates Figure 6: Detailed and Basic errors across GPUs.
type Fig6Result struct {
	Rows []Fig6Row
	// MeanErr maps GPU name to [Detailed, Basic] mean errors over the
	// successful rows.
	MeanErr map[string][2]float64
	// Failed lists (GPU, application) pairs excluded from the figure.
	Failed []Failure
}

// Figure6 validates Detailed and Swift-Sim-Basic against the golden model
// of each of the three GPUs. Failed (GPU, app) pairs are dropped from the
// figure and recorded in Failed, carrying only the first failing stage
// (an app whose Detailed run fails never runs Basic).
//
// Unlike Figure 4, the figure reports only error percentages — no
// wall-clock quantity — so its simulations run on a p.Threads worker pool:
// per GPU, the surviving apps' Detailed jobs sweep in parallel, then the
// Basic jobs of the apps whose Detailed run succeeded. Results are
// byte-identical to a serial run (each job is an independent simulator
// instance) and rows stay in application order.
func Figure6(p Params) (*Fig6Result, error) {
	p.fill()
	apps, err := p.apps()
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{MeanErr: make(map[string][2]float64)}
	downscaled := p.GPU.NumSMs != config.RTX2080Ti().NumSMs ||
		p.GPU.MemPartitions != config.RTX2080Ti().MemPartitions
	// cand is an app that survived every stage so far, with its
	// accumulated per-stage cycle counts.
	type cand struct {
		app       *trace.App
		hwCycles  uint64
		detCycles uint64
	}
	for _, gpu := range []config.GPU{config.RTX2080Ti(), config.RTX3060(), config.RTX3090()} {
		if downscaled {
			// A scaled-down experiment GPU replaces only SM/partition
			// counts; per-architecture parameters are kept.
			gpu.NumSMs = p.GPU.NumSMs
			gpu.MemPartitions = p.GPU.MemPartitions
		}
		// Stage 1: the golden hardware model, serially — it is an
		// analytical computation, not a simulation worth pooling.
		var cands []cand
		for _, app := range apps {
			if cerr := p.ctx().Err(); cerr != nil {
				res.Failed = append(res.Failed, Failure{GPU: gpu.Name, App: app.Name, Stage: "canceled", Err: cerr})
				continue
			}
			hw, err := hwmodel.Run(app, gpu, hwmodel.DefaultParams())
			if err != nil {
				res.Failed = append(res.Failed, Failure{GPU: gpu.Name, App: app.Name, Stage: "hwmodel", Err: err})
				continue
			}
			cands = append(cands, cand{app: app, hwCycles: hw.Cycles})
		}
		runKind := func(kind sim.Kind, items []cand) []runner.Outcome {
			jobs := make([]runner.Job, len(items))
			for i, c := range items {
				jobs[i] = runner.Job{App: c.app, GPU: gpu, Opts: sim.Options{Kind: kind}}
			}
			return runner.Run(jobs, p.Threads, runner.Options{
				Ctx: p.Ctx, JobTimeout: p.JobTimeout, Trace: p.Trace, Defaults: p.Defaults,
			})
		}
		// Stage 2: Detailed sweep; stage 3: Basic, only for apps whose
		// Detailed run succeeded.
		var detOK []cand
		for i, o := range runKind(sim.Detailed, cands) {
			if o.Err != nil {
				res.Failed = append(res.Failed, Failure{GPU: gpu.Name, App: cands[i].app.Name, Stage: sim.Detailed.String(), Err: simErr(o.Err)})
				continue
			}
			c := cands[i]
			c.detCycles = o.Result.Cycles
			detOK = append(detOK, c)
		}
		var sumDet, sumBasic float64
		okRows := 0
		for i, o := range runKind(sim.Basic, detOK) {
			c := detOK[i]
			if o.Err != nil {
				res.Failed = append(res.Failed, Failure{GPU: gpu.Name, App: c.app.Name, Stage: sim.Basic.String(), Err: simErr(o.Err)})
				continue
			}
			row := Fig6Row{
				GPU:         gpu.Name,
				App:         c.app.Name,
				ErrDetailed: stats.RelError(float64(c.detCycles), float64(c.hwCycles)),
				ErrBasic:    stats.RelError(float64(o.Result.Cycles), float64(c.hwCycles)),
			}
			sumDet += row.ErrDetailed
			sumBasic += row.ErrBasic
			okRows++
			res.Rows = append(res.Rows, row)
		}
		if okRows > 0 {
			res.MeanErr[gpu.Name] = [2]float64{
				sumDet / float64(okRows),
				sumBasic / float64(okRows),
			}
		}
	}
	return res, nil
}

// simErr strips the runner's *JobError wrapper from a sweep outcome: the
// Failure record already carries the job's identity, so only the
// underlying simulation error is kept (panics, which have no underlying
// error, keep the full JobError).
func simErr(err error) error {
	var je *runner.JobError
	if errors.As(err, &je) && je.Err != nil {
		return je.Err
	}
	return err
}

// Print writes the Figure 6 summary.
func (r *Fig6Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 6: prediction error across GPU architectures")
	fmt.Fprintf(w, "%-10s %-10s %10s %10s\n", "GPU", "App", "errDet", "errBasic")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %-10s %10s %10s\n", row.GPU, row.App,
			stats.Pct(row.ErrDetailed), stats.Pct(row.ErrBasic))
	}
	// Render the mean rows in sorted key order: ranging over the map
	// directly would make the report nondeterministic, and a hardcoded
	// name list would silently drop GPUs added to the figure later.
	names := make([]string, 0, len(r.MeanErr))
	for name := range r.MeanErr {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.MeanErr[name]
		fmt.Fprintf(w, "%-10s %-10s %10s %10s\n", name, "MEAN",
			stats.Pct(m[0]), stats.Pct(m[1]))
	}
	printFailures(w, r.Failed)
}

func defaultThreads() int { return runtime.NumCPU() }
