// Sampled execution: kernel-launch memoization + representative-block
// sampling with analytical extrapolation.
//
// The synthetic corpus (like real NVBit traces) is dominated by two kinds
// of redundancy the full simulator pays for every time:
//
//   - Repeated launches. Iterative apps launch the same kernel code over
//     and over (per-step names and base addresses differ; the static
//     instruction streams do not). The first launch of each fingerprint is
//     simulated at full fidelity and its outcome — duration and metric
//     delta — recorded; later launches with the same fingerprint *replay*
//     the record: engine time advances analytically (Engine.AdvanceTime)
//     and the counters gain the recorded delta, with no per-cycle work. A
//     configurable stride re-simulates every Nth repeat to bound drift,
//     and a launch is only replayed at a quiescent boundary (otherwise
//     in-flight work would jump over the advanced interval).
//
//   - Homogeneous blocks within a launch. Only a representative subset of
//     CTAs is simulated — the full first wave (cold caches and launch
//     contention) plus stratified, seeded contiguous tail windows with
//     built-in pressure blocks (smcore.SelectBlockSample) — and the
//     remainder is extrapolated through the Eq. 1-style analytical path:
//     the measured per-sampled-block launch/end cycles (which embed the
//     sampled blocks' hit rates, neighbor locality, and contention delays)
//     price the unsimulated blocks' cycles (analytic.ExtrapolateBlocks),
//     and the launch's counter growth is scaled to the full grid
//     (metrics.Gatherer.FoldScaled) so canonical metrics output stays
//     schema-identical.
//
// The launch fingerprint is (static-content hash, previous launch's
// static-content hash). trace.LaunchKey hashes geometry, resources and the
// instruction streams but not names or address values, so per-step
// relaunches match; the previous launch's key is a Markov-1 signature of
// the cache/DRAM state the launch enters with — two launches replay one
// another only when both the code and the predecessor's code agree.
//
// Everything here is deterministic: selection is a pure function of
// (config, kernel, fraction, seed), measured durations fold through
// order-independent integer sums, and replay reuses recorded values — so
// a sampled run is bit-reproducible, exactly like exact mode. Accuracy is a trade, not a guarantee; the per-preset
// envelopes in internal/regress/testdata/sample bound the drift.
package sim

import (
	"context"
	"math"

	"swiftsim/internal/analytic"
	"swiftsim/internal/config"
	"swiftsim/internal/smcore"
	"swiftsim/internal/trace"
)

// Sampling configures the sampled execution mode. The zero value (Enabled
// false) simulates everything.
type Sampling struct {
	// Enabled turns sampled execution on.
	Enabled bool `json:"enabled,omitempty"`
	// BlockFraction is the fraction of each launch's post-first-wave
	// blocks to simulate, in (0,1); 0 means the default 0.125. The first
	// wave is always simulated in full.
	BlockFraction float64 `json:"block_fraction,omitempty"`
	// ReplayStride re-simulates every Nth occurrence of a repeated launch
	// fingerprint instead of replaying it, bounding replay drift; 0 means
	// the default 8, 1 disables replay entirely (every launch simulates).
	ReplayStride int `json:"replay_stride,omitempty"`
	// Seed drives the stratified tail selection. Runs with equal seeds
	// (and options) are bit-identical; different seeds sample different
	// representatives.
	Seed uint64 `json:"seed,omitempty"`
}

// DefaultBlockFraction and DefaultReplayStride are the effective values of
// the zero fields of an enabled Sampling.
const (
	DefaultBlockFraction = 0.125
	DefaultReplayStride  = 8
)

// Effective returns s with zero fields replaced by the defaults (and a
// disabled s as the zero value). Options.Identity and the regress envelopes
// both use the effective values, so "default by zero" and "default spelled
// out" hit the same cache entries and envelopes.
func (s Sampling) Effective() Sampling {
	if !s.Enabled {
		return Sampling{}
	}
	if s.BlockFraction == 0 {
		s.BlockFraction = DefaultBlockFraction
	}
	if s.ReplayStride == 0 {
		s.ReplayStride = DefaultReplayStride
	}
	return s
}

// launchFP is the memoization key of one kernel launch: the launch's
// static-content hash plus its predecessor's (zero for the first launch).
type launchFP struct {
	key  [32]byte
	prev [32]byte
}

// replayRec is the recorded outcome of one fully simulated launch: its
// extrapolated duration and its post-fold counter delta (sorted by name).
// seen counts occurrences of the fingerprint, including the recorded one,
// to drive the re-simulation stride.
type replayRec struct {
	cycles uint64
	names  []string
	vals   []uint64
	seen   int
}

// sampleKernel is the per-kernel sampling plan of one run.
type sampleKernel struct {
	fp        launchFP
	total     int     // blocks in the original launch
	simulated int     // blocks in the sampled launch
	waveCap   int     // concurrent blocks per wave
	factor    float64 // total/simulated counter scale
}

// sampler orchestrates one sampled run.
type sampler struct {
	opts    Sampling
	kernels []sampleKernel
	memo    map[launchFP]*replayRec

	// per-launch measurement state, reset by beginLaunch: per-block
	// (launch, end) cycle pairs, split into first-wave and tail-window
	// populations.
	cur          int // kernel index being simulated
	baseSnap     map[string]uint64
	headL, headE []uint64
	tailL, tailE []uint64
	pending      launchFP // fingerprint to record at endLaunch
}

// newSampler plans the sampled run: every kernel is replaced by its
// representative-block subset and fingerprinted. The returned app is what
// the rest of the run (profiling included) simulates.
func newSampler(app *trace.App, gpu config.GPU, opts Sampling) (*sampler, *trace.App) {
	s := &sampler{
		opts:    opts.Effective(),
		kernels: make([]sampleKernel, len(app.Kernels)),
		memo:    make(map[launchFP]*replayRec),
	}
	out := &trace.App{Name: app.Name, Suite: app.Suite}
	var prev [32]byte
	for i, k := range app.Kernels {
		sel := smcore.SelectBlockSample(gpu.SM, k, gpu.NumSMs, s.opts.BlockFraction, s.opts.Seed)
		sk := k
		if len(sel) < len(k.Blocks) {
			blocks := make([]trace.BlockTrace, len(sel))
			for j, bi := range sel {
				blocks[j] = k.Blocks[bi]
			}
			sk = &trace.Kernel{
				Name:              k.Name,
				Grid:              trace.Dim3{X: len(sel), Y: 1, Z: 1},
				Block:             k.Block,
				RegsPerThread:     k.RegsPerThread,
				SharedMemPerBlock: k.SharedMemPerBlock,
				Blocks:            blocks,
			}
		}
		out.Kernels = append(out.Kernels, sk)
		wave := smcore.BlocksPerSM(gpu.SM, k) * gpu.NumSMs
		if wave < 1 {
			wave = 1
		}
		key := trace.LaunchKey(sk)
		s.kernels[i] = sampleKernel{
			fp:        launchFP{key: key, prev: prev},
			total:     len(k.Blocks),
			simulated: len(sel),
			waveCap:   wave,
			factor:    float64(len(k.Blocks)) / float64(len(sel)),
		}
		prev = key
	}
	return s, out
}

// install wires the per-block duration observer into every SM of the
// assembly. Call once, after assemble.
func (s *sampler) install(a *gpuAssembly) {
	for _, sm := range a.sms {
		sm.SetBlockObserver(s.observe)
	}
}

// observe records one finished block's duration, split into first-wave and
// tail populations (block indices are kernel-local indices of the sampled
// launch, whose first waveCap blocks are the first wave). It runs in a
// serial engine phase; see smcore.SM.SetBlockObserver.
func (s *sampler) observe(index int, launch, end uint64) {
	if index < s.kernels[s.cur].waveCap {
		s.headL = append(s.headL, launch)
		s.headE = append(s.headE, end)
		return
	}
	s.tailL = append(s.tailL, launch)
	s.tailE = append(s.tailE, end)
}

// tryReplay consults the memo for kernel ki's fingerprint. On a hit whose
// stride position allows replay, it brings the engine to quiescence (the
// previous kernel's fire-and-forget stores may still be draining through
// the cycle-accurate L2/DRAM; the drain is itself deterministic and short),
// advances time by the recorded duration, adds the recorded counter delta,
// and returns (cycles, true). Otherwise the launch must be simulated (and
// will be recorded by endLaunch). The drained tail is not added to the
// returned duration: in a full run it overlaps the next kernel's execution,
// and the recorded duration was measured from a launch with the same
// overlap.
func (s *sampler) tryReplay(ctx context.Context, a *gpuAssembly, ki int, maxCycles uint64) (uint64, bool) {
	fp := s.kernels[ki].fp
	rec, ok := s.memo[fp]
	if !ok {
		return 0, false
	}
	rec.seen++
	if s.opts.ReplayStride <= 1 || rec.seen%s.opts.ReplayStride == 0 {
		// Stride boundary: refresh the record with a full simulation.
		return 0, false
	}
	if !a.eng.Quiescent() {
		limit := a.eng.Cycle() + maxCycles
		if limit < a.eng.Cycle() {
			limit = math.MaxUint64
		}
		if _, err := a.eng.RunCtx(ctx, a.eng.Quiescent, limit); err != nil {
			// Could not quiesce within budget (or canceled): simulate the
			// launch instead; a real error will resurface there.
			return 0, false
		}
	}
	if err := a.eng.AdvanceTime(rec.cycles); err != nil {
		return 0, false
	}
	for i, n := range rec.names {
		a.g.Counter(n).Add(rec.vals[i])
	}
	return rec.cycles, true
}

// beginLaunch resets the per-launch measurement state and snapshots the
// counters so endLaunch can compute the launch's delta.
func (s *sampler) beginLaunch(a *gpuAssembly, ki int) {
	s.cur = ki
	s.headL, s.headE = s.headL[:0], s.headE[:0]
	s.tailL, s.tailE = s.tailL[:0], s.tailE[:0]
	s.pending = s.kernels[ki].fp
	s.baseSnap = a.g.Snapshot()
}

// endLaunch finishes a simulated (non-replayed) launch: extrapolates the
// unsimulated blocks' cycles from the measured durations, scales the
// launch's counter growth to the full grid, records the outcome under the
// launch fingerprint, and returns the launch's total duration.
func (s *sampler) endLaunch(a *gpuAssembly, ki int, simCycles uint64) uint64 {
	sk := &s.kernels[ki]
	// Tail blocks see steady-state contention and are the better price for
	// the unsimulated remainder; launches at or under two waves have no
	// tail (and nothing to extrapolate anyway).
	lau, end := s.tailL, s.tailE
	if len(lau) == 0 {
		lau, end = s.headL, s.headE
	}
	kc := simCycles + analytic.ExtrapolateBlocks(lau, end, sk.waveCap, sk.total, sk.simulated)

	a.g.FoldScaled(s.baseSnap, sk.factor, func(name string) bool {
		// Per-launch gauges must not scale with block count.
		return name == "gpu.kernels"
	})

	// Record the post-fold delta so a replay reproduces exactly what this
	// launch contributed (including its own gpu.kernels increment).
	snap := a.g.Snapshot()
	rec := &replayRec{cycles: kc, seen: 1}
	for _, n := range a.g.Names() {
		if d := snap[n] - s.baseSnap[n]; d != 0 {
			rec.names = append(rec.names, n)
			rec.vals = append(rec.vals, d)
		}
	}
	s.memo[s.pending] = rec
	return kc
}
