// Run options: the one record every layer describes a simulation with.
//
// Options is declared here and nowhere else. The public API aliases it
// (swiftsim.Config), the sweep service ships it to workers as JSON, the
// runner, the experiments and the service hold one Options value as their
// defaults, and the front ends fill one from flags (cliutil.RunFlags). The
// four functions below are everything those layers need of it: Validate
// (is this combination meaningful), WithDefaults (the overlay), Effective
// (what an assembly of it actually runs) and Identity (what distinguishes
// one run's results from another's).
package sim

import (
	"fmt"
	"io"

	"swiftsim/internal/obs"
	"swiftsim/internal/smcore"
)

// Kind selects a simulator configuration.
type Kind int

const (
	// Detailed is the fully cycle-accurate baseline (Accel-Sim class).
	Detailed Kind = iota
	// Basic is Swift-Sim-Basic: analytical ALUs, cycle-accurate memory.
	Basic
	// Memory is Swift-Sim-Memory: analytical ALUs and analytical memory.
	Memory
	// L2Hybrid keeps the LD/ST units and the L1 cycle-accurate but
	// replaces everything below the L1 (NoC, L2, DRAM) with the
	// analytical Backend — a third hybridization point, at the mem.Port
	// boundary, showing that any subset of modules can be simplified.
	L2Hybrid
)

// String returns the configuration name used in reports.
func (k Kind) String() string {
	switch k {
	case Detailed:
		return "Detailed"
	case Basic:
		return "Swift-Sim-Basic"
	case Memory:
		return "Swift-Sim-Memory"
	case L2Hybrid:
		return "Swift-Sim-L2"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps the front ends' simulator spelling (-sim flags, the
// service's "sims" field) to a Kind.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "detailed":
		return Detailed, nil
	case "basic":
		return Basic, nil
	case "memory":
		return Memory, nil
	case "l2":
		return L2Hybrid, nil
	default:
		return 0, fmt.Errorf("unknown simulator %q (want detailed|basic|memory|l2)", name)
	}
}

// HitRateSource selects where Swift-Sim-Memory's Eq. 1 rates come from.
type HitRateSource int

const (
	// FunctionalCaches extracts rates with timeless sectored caches
	// (supports every replacement policy).
	FunctionalCaches HitRateSource = iota
	// ReuseDistance extracts rates with LRU stack-distance theory.
	ReuseDistance
)

// Options configures a simulation run. The JSON form is what the sweep
// daemon sends its workers; fields tagged "-" are process-local hooks that
// cannot leave the process.
type Options struct {
	// Kind selects the simulator configuration.
	Kind Kind `json:"kind"`
	// HitRates selects Swift-Sim-Memory's hit-rate source.
	HitRates HitRateSource `json:"hit_rates,omitempty"`
	// MaxCycles bounds simulated time per kernel (0 = default guard of
	// one billion cycles).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// LatencyScale multiplies memory/unit latencies; the golden hardware
	// model uses it (>1) to represent undisclosed real-hardware timing.
	// 0 means 1.0.
	LatencyScale float64 `json:"latency_scale,omitempty"`
	// ExtraKernelOverhead adds fixed cycles per kernel launch (golden
	// model: driver/launch overhead no performance simulator models).
	ExtraKernelOverhead uint64 `json:"extra_kernel_overhead,omitempty"`
	// Scheduler optionally installs a custom warp-scheduling policy
	// (smcore.Picker) per sub-core in place of the configured built-in —
	// the paper's new-scheduler exploration hook. Works with every Kind.
	// It cannot be compared, so it is in no identity: keeping it stable
	// across a snapshot/restore pair is the caller's responsibility, and
	// the sweep service never sets it.
	Scheduler func(smID, sub int) smcore.Picker `json:"-"`
	// EngineThreads is read by nothing: a simulation runs on the goroutine
	// that called RunCtx, and results never depended on this value.
	//
	// Deprecated: the sharded engine it sized is gone. The field stays, and
	// keeps its JSON name, because the frozen benchmark harness (bench/) sets
	// it and stored specs and wire jobs may carry "engine_threads"; Validate
	// still refuses a negative value. It is in no identity.
	EngineThreads int `json:"engine_threads,omitempty"`
	// EpochCycles is the relaxed-sync epoch length. A value k > 1 lets the
	// SMs and their L1s run k consecutive local cycles at a stretch before
	// the shared memory system catches up, with L1→interconnect traffic
	// carried through bounded-staleness queues (see boundary.go) so no
	// module ever observes a value from its future. 0 or 1 keeps the exact
	// cycle-by-cycle run and byte-identical results; k > 1 trades a bounded,
	// per-preset-quantified metric drift for fewer engine round trips. For a
	// given (configuration, k) results are still bit-reproducible. Memory,
	// which has no cycle-accurate SM-to-memory traffic to relax, always runs
	// exact — see Effective.
	EpochCycles int `json:"epoch_cycles,omitempty"`
	// SnapshotAt, together with SnapshotTo, checkpoints the run at the
	// first quiescent kernel boundary at or after this cycle (0 = the
	// first boundary); the run then continues normally. Taking a
	// checkpoint never perturbs the run, so like the hook it positions it
	// is in no identity.
	SnapshotAt uint64 `json:"-"`
	// SnapshotTo receives the versioned binary checkpoint (internal/snap
	// format). nil disables snapshotting. If no kernel boundary at or
	// after SnapshotAt is quiescent before the run ends, the run fails
	// with a structured error rather than silently writing nothing.
	SnapshotTo io.Writer `json:"-"`
	// RestoreFrom, when non-nil, resumes the run from a checkpoint written
	// by SnapshotTo: already-simulated kernels are skipped and all module
	// state (warmed L2, DRAM row state, scheduler counters, metrics) is
	// restored. The checkpoint's app, GPU and Identity must match this
	// run's.
	RestoreFrom io.Reader `json:"-"`
	// Sampling enables the sampled execution mode: kernel-launch
	// memoization with analytical replay plus representative-block (CTA)
	// sampling with Eq. 1-style extrapolation — see sample.go. Opt-in and
	// deterministic (bit-reproducible for fixed options); accuracy drift is
	// bounded by the per-preset envelopes in internal/regress. Composes with
	// every Kind and with EpochCycles; incompatible with snapshot/restore (a
	// replayed launch has no simulated state to checkpoint).
	Sampling Sampling `json:"sampling"`
	// Trace is the observability handle (internal/obs). nil (or a tracer
	// below the relevant level) records nothing; with tracing on, the
	// engine, SMs, caches, NoC and DRAM emit spans and counter samples
	// into it. Tracing never changes simulation results or metrics.
	Trace *obs.Tracer `json:"-"`
}

// Validate checks the options' ranges and cross-field rules, so a
// combination with no reading fails with one message up front instead of
// a deeper error or a silently ignored setting. RunCtx calls it; the front
// ends call it on what they parsed, before doing any work.
//
//   - Kind and HitRates must name a declared value.
//   - EngineThreads and EpochCycles are non-negative (0 means the default,
//     so a negative value has no reading).
//   - An enabled Sampling has BlockFraction in [0,1) and a non-negative
//     ReplayStride; tuning fields on a disabled Sampling would be dead.
//   - Sampling does not combine with snapshot/restore.
func (o Options) Validate() error {
	if o.Kind < Detailed || o.Kind > L2Hybrid {
		return fmt.Errorf("unknown simulator kind %d", int(o.Kind))
	}
	if o.HitRates < FunctionalCaches || o.HitRates > ReuseDistance {
		return fmt.Errorf("unknown hit-rate source %d", int(o.HitRates))
	}
	if o.EngineThreads < 0 {
		return fmt.Errorf("EngineThreads must be >= 0, got %d", o.EngineThreads)
	}
	if o.EpochCycles < 0 {
		return fmt.Errorf("EpochCycles must be >= 0, got %d", o.EpochCycles)
	}
	s := o.Sampling
	if !s.Enabled {
		if s != (Sampling{}) {
			return fmt.Errorf("Sampling fraction %v, stride %d, seed %d have no effect without Sampling.Enabled", s.BlockFraction, s.ReplayStride, s.Seed)
		}
		return nil
	}
	if !(s.BlockFraction >= 0 && s.BlockFraction < 1) {
		return fmt.Errorf("Sampling.BlockFraction must be in (0,1) (0 = default %v), got %v", DefaultBlockFraction, s.BlockFraction)
	}
	if s.ReplayStride < 0 {
		return fmt.Errorf("Sampling.ReplayStride must be >= 0 (0 = default %d, 1 = no replay), got %d", DefaultReplayStride, s.ReplayStride)
	}
	if o.SnapshotTo != nil || o.RestoreFrom != nil {
		return fmt.Errorf("sampled mode cannot be combined with snapshot/restore: a replayed launch has no simulated state to checkpoint")
	}
	return nil
}

// WithDefaults overlays o on def, the one "zero means the default" rule:
// a zero EpochCycles and a disabled Sampling take def's value; everything
// o sets wins. The runner, the experiments and the sweep service apply
// their sweep-wide defaults to each job with it.
func (o Options) WithDefaults(def Options) Options {
	if o.EpochCycles == 0 {
		o.EpochCycles = def.EpochCycles
	}
	if !o.Sampling.Enabled {
		o.Sampling = def.Sampling
	}
	return o
}

// Effective returns o as an assembly actually runs it: the epoch
// length forced to 1 (exact) for Memory, the zero EpochCycles, MaxCycles
// and Sampling fields replaced by their defaults. It is idempotent, and
// running Effective options is indistinguishable from running o.
func (o Options) Effective() Options {
	if o.EpochCycles < 1 || o.Kind == Memory {
		o.EpochCycles = 1
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 1_000_000_000
	}
	o.Sampling = o.Sampling.Effective()
	return o
}

// Identity renders every result-affecting field of o, normalised by
// Effective, as one line. Two runs of the same trace on the same GPU give
// byte-identical results exactly when their identities are equal, so the
// sweep service hashes it into the cache key and a snapshot stores it and
// refuses to restore into a run whose identity differs. EngineThreads is
// absent because nothing reads it; SnapshotAt and the hooks are absent
// because they never change results (a custom Scheduler would, but a
// function cannot be rendered: see the field).
func (o Options) Identity() string {
	o = o.Effective()
	s := o.Sampling
	return fmt.Sprintf("kind=%d hitrates=%d maxcycles=%d latencyscale=%g overhead=%d epoch=%d sampling=%t frac=%g stride=%d seed=%d",
		o.Kind, o.HitRates, o.MaxCycles, o.LatencyScale, o.ExtraKernelOverhead, o.EpochCycles,
		s.Enabled, s.BlockFraction, s.ReplayStride, s.Seed)
}
