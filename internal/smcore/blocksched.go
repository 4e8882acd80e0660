package smcore

import (
	"swiftsim/internal/config"
	"swiftsim/internal/engine"
	"swiftsim/internal/metrics"
	"swiftsim/internal/trace"
)

// BlockScheduler is the GPU-level CTA scheduler: it distributes the thread
// blocks of the running kernel across SMs as residency resources free up,
// and detects kernel completion. The Metrics Gatherer reads total
// simulation cycles from here (paper §III-C).
type BlockScheduler struct {
	sms    []*SM
	wake   func() // engine activation callback
	kernel *trace.Kernel
	next   int // next block to assign
	done   int // completed blocks
	cursor int // round-robin start SM
	err    error

	kernelsRun  *metrics.Counter
	blocksTotal *metrics.Counter
}

// NewBlockScheduler builds a scheduler over the given SMs. Wire each SM's
// onBlockDone to (*BlockScheduler).BlockDone.
func NewBlockScheduler(sms []*SM, g *metrics.Gatherer) *BlockScheduler {
	return &BlockScheduler{
		sms:         sms,
		kernelsRun:  g.Counter("gpu.kernels"),
		blocksTotal: g.Counter("gpu.blocks"),
	}
}

// LaunchKernel starts distributing k's blocks. Any previous kernel must
// have completed.
func (bs *BlockScheduler) LaunchKernel(k *trace.Kernel) {
	bs.kernel = k
	bs.next = 0
	bs.done = 0
	bs.kernelsRun.Inc()
	bs.wake() // distribute the new kernel's blocks at the next tick
}

// SetWake implements engine.Ticker. The scheduler only has work right
// after a kernel launch or a block completion, so it wakes itself at those
// two points and otherwise stays out of the engine's active set.
func (bs *BlockScheduler) SetWake(wake func()) { bs.wake = wake }

// KernelDone reports whether every block of the current kernel completed
// (or the kernel was aborted by an assignment error; check Err).
func (bs *BlockScheduler) KernelDone() bool {
	return bs.kernel == nil || bs.done == len(bs.kernel.Blocks)
}

// Err returns the first block-assignment error, if any. A non-nil error
// means the current kernel was aborted: KernelDone reports true so the
// engine run unwinds, and the caller must treat the kernel as failed. The
// error is sticky across LaunchKernel calls.
func (bs *BlockScheduler) Err() error { return bs.err }

// BlockDone records one finished block; SMs call it via their onBlockDone
// hook.
func (bs *BlockScheduler) BlockDone(*SM) {
	bs.done++
	bs.blocksTotal.Inc()
	bs.wake() // freed residency may admit further blocks
}

// Name implements engine.Module.
func (bs *BlockScheduler) Name() string { return "BlockScheduler" }

// Kind implements engine.Module.
func (bs *BlockScheduler) Kind() engine.ModelKind { return engine.CycleAccurate }

// Busy implements engine.Ticker. Assignment only unblocks when a block
// completes, which is always an engine event, and the engine ticks every
// module on event cycles — so the scheduler never needs to force ticking
// and can let the engine fast-forward.
func (bs *BlockScheduler) Busy() bool { return false }

// SelectBlockSample picks the representative block subset of one kernel
// launch for sampled simulation: the entire first wave (every block that
// would be concurrently resident at launch under cfg's occupancy limits on
// numSMs SMs — cold-cache behavior and launch contention must be measured,
// not modeled), plus one or more *contiguous windows* of one-and-a-half
// waves each from the tail. A window's blocks execute concurrently at full
// occupancy with their grid neighbors, so the measured window carries the
// same contention, warmed-cache hit rates, and neighbor locality (stencil
// halos, shared tiles) the unsimulated waves would have seen — scattered
// single-block samples run under-occupied next to strangers and
// systematically mis-price both effects. The extra half wave is pressure:
// while it drains, the window's first completions happen with blocks still
// pending, i.e. at sustained full occupancy, which is exactly the
// steady-state drain rate analytic.ExtrapolateBlocks prices the
// unsimulated remainder with (a bare one-wave window ends in rundown — the
// machine empties out and the surviving blocks speed up — biasing every
// completion it measures).
//
// The default is one window; frac grows the sample (round(frac×tail/wlen)
// windows, capped so windows never overlap), and the windows are
// stratified across the tail at seed-jittered offsets so the sample tracks
// index-dependent behavior drift (wavefront apps).
//
// The returned indices are strictly increasing, always include index 0,
// and are a pure function of (cfg, k, numSMs, frac, seed) — the selection
// is deterministic and reproducible across hosts and thread counts.
// Kernels whose tail is no larger than one window are returned whole. k
// must pass ValidateKernel, and numSMs be positive.
func SelectBlockSample(cfg config.SM, k *trace.Kernel, numSMs int, frac float64, seed uint64) []int {
	n := len(k.Blocks)
	wave := BlocksPerSM(cfg, k) * numSMs
	wlen := wave + (wave+1)/2
	tail := n - wave
	if tail <= wlen {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	win := int(float64(tail)*frac/float64(wlen) + 0.5)
	if win < 1 {
		win = 1
	}
	if max := tail / wlen; win > max {
		win = max
	}
	out := make([]int, 0, wave+win*wlen)
	for i := 0; i < wave; i++ {
		out = append(out, i)
	}
	// One stratum per window; win ≤ tail/wlen guarantees every stratum is
	// at least one window long, so jittered windows stay inside their
	// stratum and never overlap.
	for s := 0; s < win; s++ {
		lo := wave + s*tail/win
		hi := wave + (s+1)*tail/win
		start := lo
		if slack := hi - lo - wlen; slack > 0 {
			start += int(sampleJitter(seed, uint64(s)) % uint64(slack+1))
		}
		for i := 0; i < wlen; i++ {
			out = append(out, start+i)
		}
	}
	return out
}

// sampleJitter derives a per-stratum pseudo-random offset from the sampling
// seed (splitmix64 finalizer — deterministic, well-mixed, dependency-free).
func sampleJitter(seed, stratum uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stratum+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Tick implements engine.Ticker: assign as many pending blocks as fit,
// round-robin over SMs. An assignment error aborts the kernel (recorded in
// Err) instead of panicking, so the enclosing simulation can fail its own
// job while sibling jobs in a parallel sweep continue.
func (bs *BlockScheduler) Tick(uint64) {
	if bs.kernel == nil || bs.err != nil {
		return
	}
	for bs.next < len(bs.kernel.Blocks) {
		assigned := false
		for i := 0; i < len(bs.sms) && bs.next < len(bs.kernel.Blocks); i++ {
			sm := bs.sms[(bs.cursor+i)%len(bs.sms)]
			if sm.CanAccept(bs.kernel) {
				if err := sm.AssignBlock(bs.kernel, bs.next); err != nil {
					bs.err = err
					bs.kernel = nil // abort: KernelDone turns true
					return
				}
				bs.next++
				bs.cursor = (bs.cursor + i + 1) % len(bs.sms)
				assigned = true
			}
		}
		if !assigned {
			return
		}
	}
}
