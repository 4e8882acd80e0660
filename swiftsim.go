// Package swiftsim is the public API of the Swift-Sim reproduction: a
// modular and hybrid GPU architecture simulation framework (Xu et al.,
// DATE 2025).
//
// Swift-Sim simulates trace-driven GPU workloads with a modular
// performance model in which every component — block scheduler, warp
// scheduler & dispatch, execution units, LD/ST unit, caches, NoC, DRAM —
// sits behind a fixed interface and can be modeled either cycle-accurately
// or analytically. Three ready-made configurations mirror the paper:
//
//	Detailed          fully cycle-accurate baseline (Accel-Sim class)
//	SwiftSimBasic     analytical ALU pipelines (§III-D1)
//	SwiftSimMemory    analytical ALUs + analytical memory model (§III-D2)
//
// A minimal session:
//
//	app, _ := swiftsim.GenerateWorkload("BFS", 1.0)
//	res, _ := swiftsim.Simulate(app, swiftsim.RTX2080Ti(), swiftsim.Config{
//		Kind: swiftsim.SwiftSimMemory,
//	})
//	fmt.Println(res.Cycles)
package swiftsim

import (
	"context"
	"io"

	"swiftsim/internal/config"
	"swiftsim/internal/hwmodel"
	"swiftsim/internal/metrics"
	"swiftsim/internal/obs"
	"swiftsim/internal/runner"
	"swiftsim/internal/sim"
	"swiftsim/internal/smcore"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// Simulator selects one of the framework's assembled configurations.
type Simulator = sim.Kind

// The three configurations evaluated in the paper.
const (
	// Detailed is the fully cycle-accurate baseline simulator.
	Detailed Simulator = sim.Detailed
	// SwiftSimBasic replaces the ALU pipelines with the analytical model
	// of §III-D1; the memory hierarchy stays cycle-accurate.
	SwiftSimBasic Simulator = sim.Basic
	// SwiftSimMemory additionally replaces the LD/ST unit and the whole
	// memory hierarchy with the Eq. 1 analytical model of §III-D2.
	SwiftSimMemory Simulator = sim.Memory
	// SwiftSimL2 keeps the LD/ST units and L1 cycle-accurate but swaps
	// the NoC, L2 and DRAM for an analytical backend — a further
	// hybridization point at the memory-port boundary.
	SwiftSimL2 Simulator = sim.L2Hybrid
)

// HitRateSource selects where SwiftSimMemory's Eq. 1 hit rates come from.
type HitRateSource = sim.HitRateSource

const (
	// FunctionalCaches extracts hit rates with timeless sectored caches
	// (works with every replacement policy).
	FunctionalCaches HitRateSource = sim.FunctionalCaches
	// ReuseDistance extracts hit rates with LRU stack-distance theory.
	ReuseDistance HitRateSource = sim.ReuseDistance
)

// GPU is a hardware configuration (see the config file format in
// internal/config and the presets below).
type GPU = config.GPU

// RTX2080Ti returns the NVIDIA RTX 2080 Ti configuration of Table II.
func RTX2080Ti() GPU { return config.RTX2080Ti() }

// RTX3060 returns the NVIDIA RTX 3060 configuration of Table I.
func RTX3060() GPU { return config.RTX3060() }

// RTX3090 returns the NVIDIA RTX 3090 configuration of Table I.
func RTX3090() GPU { return config.RTX3090() }

// GPUPreset looks up a preset configuration by name ("RTX2080Ti",
// "RTX3060", "RTX3090").
func GPUPreset(name string) (GPU, bool) { return config.Preset(name) }

// LoadGPU reads a hardware configuration file (key = value format; see
// WriteGPU for the exact keys). Files may set "gpu.base = <preset>" and
// override individual parameters.
func LoadGPU(path string) (GPU, error) { return config.LoadFile(path) }

// WriteGPU writes a configuration file for g.
func WriteGPU(path string, g GPU) error { return config.WriteFile(path, g) }

// App is a traced GPU application: an ordered list of kernel launches with
// per-warp instruction streams.
type App = trace.App

// Kernel is one kernel launch within an App.
type Kernel = trace.Kernel

// GenerateWorkload synthesizes one of the 20 bundled benchmark
// applications (Rodinia, Polybench, Mars, Tango, Pannotia) at the given
// problem scale (1.0 = default size). See Workloads for the catalog.
func GenerateWorkload(name string, scale float64) (*App, error) {
	return workload.Generate(name, scale)
}

// Workloads lists the bundled application names grouped by suite order.
func Workloads() []string { return workload.Names() }

// WorkloadInfo describes one bundled application.
type WorkloadInfo struct {
	Name        string
	Suite       string
	Description string
	MemoryBound bool
}

// WorkloadCatalog returns the full application catalog.
func WorkloadCatalog() []WorkloadInfo {
	specs := workload.Catalog()
	out := make([]WorkloadInfo, len(specs))
	for i, s := range specs {
		out[i] = WorkloadInfo{Name: s.Name, Suite: s.Suite, Description: s.Description, MemoryBound: s.MemoryBound}
	}
	return out
}

// ReadTrace parses a .sgt trace file produced by WriteTrace or the
// tracegen tool.
func ReadTrace(path string) (*App, error) { return trace.ReadFile(path) }

// WriteTrace serializes an application to a .sgt trace file.
func WriteTrace(path string, app *App) error { return trace.WriteFile(path, app) }

// WarpPicker is a custom warp-scheduling policy: the extension point of
// the paper's motivating scenario (exploring new warp schedulers while
// everything else is modeled analytically). Implementations see the
// resident warps of one sub-core each cycle and return the slot index to
// issue from; see NewMemFirstPicker for a worked example.
type WarpPicker = smcore.Picker

// Warp is the per-warp execution context a WarpPicker inspects.
type Warp = smcore.Warp

// Candidate-inspection helpers for WarpPicker implementations.
var (
	// PickerIssuable reports whether a warp can issue this cycle.
	PickerIssuable = smcore.Issuable
	// PickerNextOp returns a warp's next opcode class.
	PickerNextOp = smcore.NextOp
	// PickerRemainingInsts returns how many instructions a warp still
	// has to issue.
	PickerRemainingInsts = smcore.RemainingInsts
)

// NewMemFirstPicker returns a policy that prioritizes warps about to issue
// global-memory instructions (maximizing memory-level parallelism).
func NewMemFirstPicker() WarpPicker { return smcore.NewMemFirstPicker() }

// NewYoungestFirstPicker returns the youngest-first strawman policy.
func NewYoungestFirstPicker() WarpPicker { return smcore.NewYoungestFirstPicker() }

// Observability: simulations can record structured trace events — kernel
// and block spans, memory request lifecycles, engine fast-forward windows,
// a periodic counter timeline — into a TraceRecorder, exported as Chrome
// trace-event JSON (chrome://tracing / Perfetto), a counter-timeline CSV,
// or a top-N stall summary. With a nil Tracer (the default) every hook is
// a single nil check: results, metrics and performance are unchanged.

// Tracer is the handle simulations emit trace events through; construct
// one with NewTracer and pass it in Config.Trace or RunOptions.Trace. A
// nil *Tracer records nothing.
type Tracer = obs.Tracer

// TraceLevel selects how much detail a Tracer records.
type TraceLevel = obs.Level

// Trace levels, in increasing detail and volume.
const (
	// TraceOff records nothing.
	TraceOff TraceLevel = obs.Off
	// TraceKernel records per-kernel and per-job spans.
	TraceKernel TraceLevel = obs.KernelLevel
	// TraceModule adds block spans, stall attribution, engine
	// fast-forward windows, and the periodic counter timeline.
	TraceModule TraceLevel = obs.ModuleLevel
	// TraceRequest adds every memory request's lifecycle through the L1,
	// NoC, L2 and DRAM.
	TraceRequest TraceLevel = obs.RequestLevel
)

// ParseTraceLevel parses "off", "kernel", "module" or "request".
func ParseTraceLevel(s string) (TraceLevel, error) { return obs.ParseLevel(s) }

// TraceRecorder is the sink trace events are recorded into; it must be
// safe for concurrent use (parallel sweeps share one recorder).
type TraceRecorder = obs.Recorder

// TraceEvent is one recorded trace event.
type TraceEvent = obs.Event

// TraceRing is a bounded in-memory recorder keeping the most recent
// events; read them back with Events().
type TraceRing = obs.Ring

// NewTracer returns a Tracer recording into rec at the given level, or
// nil (record nothing) when rec is nil or level is TraceOff.
func NewTracer(rec TraceRecorder, level TraceLevel) *Tracer { return obs.New(rec, level) }

// NewTraceRing returns an in-memory recorder holding at most capacity
// events (<= 0 uses a large default).
func NewTraceRing(capacity int) *TraceRing { return obs.NewRing(capacity) }

// NewTraceJSON returns a recorder streaming Chrome trace-event JSON to w
// as events arrive. Close it on every exit path — Close writes the array
// terminator, so even a truncated run leaves a loadable trace. If w is an
// io.Closer it is closed too.
func NewTraceJSON(w io.Writer) TraceRecorder { return obs.NewJSONStream(w) }

// TraceMulti duplicates events to several recorders (e.g. a JSON file
// plus a ring for the CSV and stall views).
func TraceMulti(recs ...TraceRecorder) TraceRecorder { return obs.Multi(recs...) }

// WriteChromeTrace writes recorded events as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return obs.WriteChromeTrace(w, events)
}

// WriteTraceCounterCSV pivots recorded counter samples into a per-kernel
// timeline CSV (cycle rows × counter columns: active SMs, L1/L2 hit-rate
// window, NoC occupancy, DRAM queue depth).
func WriteTraceCounterCSV(w io.Writer, events []TraceEvent) error {
	return obs.WriteCounterCSV(w, events)
}

// WriteTraceStallSummary writes the top-n stall reasons aggregated from
// recorded events plus any extra named totals (pass nil for none; n <= 0
// writes all).
func WriteTraceStallSummary(w io.Writer, events []TraceEvent, extra map[string]uint64, n int) error {
	return obs.WriteStallSummary(w, events, extra, n)
}

// Sampling configures the sampled execution mode (Config.Sampling): set
// Enabled and optionally BlockFraction, ReplayStride and Seed; zero
// fields mean the defaults (DefaultSampleFraction, DefaultSampleStride).
type Sampling = sim.Sampling

// Effective default values of a zero-field enabled Sampling.
const (
	// DefaultSampleFraction is the default fraction of each launch's
	// post-first-wave blocks simulated under sampling.
	DefaultSampleFraction = sim.DefaultBlockFraction
	// DefaultSampleStride is the default re-simulation stride of repeated
	// launch fingerprints under sampling.
	DefaultSampleStride = sim.DefaultReplayStride
)

// Config selects how Simulate models the GPU: the simulator configuration
// (Kind, default Detailed), the relaxed-sync dial (EpochCycles), sampled
// execution (Sampling), checkpointing
// (SnapshotAt/SnapshotTo/RestoreFrom), a custom warp Scheduler and the
// observability Trace. It is the simulator's own options record — see
// sim.Options for every field — so a setting exists under one name at
// every layer; the zero value is an exact Detailed run.
type Config = sim.Options

// ParseSimulator parses the command-line spelling of a Kind:
// "detailed", "basic", "memory" or "l2".
func ParseSimulator(name string) (Simulator, error) { return sim.ParseKind(name) }

// Result is the outcome of one simulation (see sim.Result for the field
// documentation).
type Result = sim.Result

// Simulate runs app on gpu under cfg.
func Simulate(app *App, gpu GPU, cfg Config) (*Result, error) {
	return SimulateCtx(context.Background(), app, gpu, cfg)
}

// SimulateCtx is Simulate with cooperative cancellation: canceling ctx (or
// passing one with a deadline) stops the simulation promptly with an error
// wrapping ctx.Err().
func SimulateCtx(ctx context.Context, app *App, gpu GPU, cfg Config) (*Result, error) {
	return sim.RunCtx(ctx, app, gpu, cfg)
}

// SimulateHardware runs the golden "real hardware" reference model used in
// place of physical GPUs for validation experiments (see DESIGN.md).
func SimulateHardware(app *App, gpu GPU) (*Result, error) {
	return hwmodel.Run(app, gpu, hwmodel.DefaultParams())
}

// Job is one simulation for SimulateAll.
type Job struct {
	App *App
	GPU GPU
	Cfg Config
}

// Outcome pairs a job's result with its error. A failed job's Err is a
// *JobError identifying the job; use errors.As/errors.Is to inspect it.
type Outcome struct {
	Result *Result
	Err    error
}

// RunOptions tunes SimulateAllOpts: sweep-wide cancellation (Ctx), per-job
// deadlines (JobTimeout), fail-fast behavior and a progress callback. The
// zero value runs every job to completion with no deadlines.
type RunOptions = runner.Options

// Progress describes one finished job, as delivered to
// RunOptions.OnProgress.
type Progress = runner.Progress

// JobError is the structured error attached to every failed Outcome: it
// carries the job's index, application and GPU names, and — when the
// simulation panicked — the recovered panic value and stack. One bad trace
// fails only its own job, never the whole sweep.
type JobError = runner.JobError

// ErrJobSkipped marks jobs never started because the sweep was canceled
// (context cancellation or FailFast); test with errors.Is.
var ErrJobSkipped = runner.ErrJobSkipped

// SimulateAll runs jobs on a worker pool of the given size (threads <= 0
// uses all CPUs), in job order — the parallel simulation mode of §IV-B2.
func SimulateAll(jobs []Job, threads int) []Outcome {
	return SimulateAllOpts(jobs, threads, RunOptions{})
}

// SimulateAllOpts is SimulateAll with fault-tolerance controls: every job
// runs under panic isolation, opts.Ctx cancels the sweep, opts.JobTimeout
// bounds each job, opts.FailFast stops after the first failure, and
// opts.OnProgress observes completions.
func SimulateAllOpts(jobs []Job, threads int, opts RunOptions) []Outcome {
	rjobs := make([]runner.Job, len(jobs))
	for i, j := range jobs {
		rjobs[i] = runner.Job{App: j.App, GPU: j.GPU, Opts: j.Cfg}
	}
	outs := runner.Run(rjobs, threads, opts)
	res := make([]Outcome, len(outs))
	for i, o := range outs {
		res[i] = Outcome{Result: o.Result, Err: o.Err}
	}
	return res
}

// WriteMetricsReport formats a result's counters (with derived miss rates)
// to w — the Metrics Gatherer output of §III-C.
func WriteMetricsReport(w io.Writer, res *Result) error {
	g := metrics.New()
	for name, v := range res.Metrics {
		g.Set(name, v)
	}
	return g.Report(w)
}
