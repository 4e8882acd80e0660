// Package engine implements Swift-Sim's simulation core: a hybrid
// cycle/event engine plus the module abstraction of the paper's "Modular and
// Hybrid GPU Modeling" layer.
//
// Cycle-accurate modules register as Tickers and are ticked every simulated
// cycle while they have work. Analytical modules do not tick: they answer a
// request by computing a latency and scheduling a completion event. Because
// both kinds of module sit behind the same inter-module interfaces, a
// simulator assembly can mix them freely — the paper's central idea. When
// every ticker is idle, the engine fast-forwards directly to the next
// scheduled event, which is where hybrid configurations gain most of their
// speed on memory-bound workloads.
package engine

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"swiftsim/internal/mem"
	"swiftsim/internal/obs"
)

// ModelKind tells how a module is simulated.
type ModelKind int

const (
	// CycleAccurate modules are ticked every cycle and model state
	// transitions in detail.
	CycleAccurate ModelKind = iota
	// Analytical modules compute latencies from closed-form models and
	// interact with the rest of the GPU only through scheduled events.
	Analytical
)

// String returns a human-readable name for k.
func (k ModelKind) String() string {
	switch k {
	case CycleAccurate:
		return "cycle-accurate"
	case Analytical:
		return "analytical"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

// Module is any simulated GPU component. The engine keeps an inventory of
// modules so a simulator can report which components are cycle-accurate and
// which are analytical.
type Module interface {
	// Name identifies the module (e.g. "SM3.L1", "WarpScheduler").
	Name() string
	// Kind reports how the module is modeled.
	Kind() ModelKind
}

// Ticker is a cycle-accurate module that needs per-cycle evaluation and
// self-reports its idle→busy transitions. At registration the engine
// installs a wake callback; the module must invoke it whenever external
// input (a port Accept, a completion event, a kernel launch) may have given
// it per-cycle work while it was idle. In exchange the engine stops ticking
// the module while it is idle: each simulated cycle touches only the active
// set, and the all-idle check is an O(1) counter test instead of an
// O(modules) Busy() scan.
type Ticker interface {
	Module
	// Tick advances the module by one cycle.
	Tick(cycle uint64)
	// Busy reports whether the module has pending per-cycle work. It is
	// polled after every tick and on every wake; when no ticker is busy
	// the engine jumps to the next scheduled event instead of ticking
	// through empty cycles.
	Busy() bool
	// SetWake installs the engine's activation callback. It is called
	// once, at Register time. The callback is idempotent and cheap when
	// the module is already active, so modules may call it conservatively.
	// It must only be invoked from within the engine's run loop (module
	// ticks or scheduled events) or while the engine is stopped — never
	// from another goroutine. A module is used only once registered, so
	// the callback is always installed.
	SetWake(wake func())
}

// Waiter is a Ticker that can hold the clock without needing a tick: a
// cache whose requests all wait on fills or on their hit latency is Busy
// (the run must not fast-forward past those completions) but has nothing to
// do per cycle. After a tick that leaves a waiter Busy and Waiting, the
// engine takes it off the tick set and keeps counting it busy, so the
// ticked and skipped cycles are those of ticking it every cycle.
//
// The contract: a waiter invokes its wake callback whenever it gets
// per-cycle work (a request to process, traffic to push downstream) and
// whenever its Busy turns false. The tick that the wake brings then polls
// Busy on the cycle an every-cycle tick would have.
type Waiter interface {
	// Waiting reports that the module is Busy only for work that arrives
	// by itself (completion events); a Tick now would do nothing.
	Waiting() bool
}

// tickerEntry is the engine's per-ticker scheduling state.
type tickerEntry struct {
	t Ticker
	// wait is non-nil for tickers implementing Waiter.
	wait Waiter
	// staged marks an entry of the epoch-local segment (RegisterSharded).
	staged bool
	// busy is the ticker's last polled Busy() state. Only busy tickers
	// keep the engine from fast-forwarding; a waiter off the active set
	// keeps its busy state until its wake brings the next poll.
	busy bool
	// pending guarantees at least one tick at the next simulated cycle
	// (set by the wake callback; cleared when the tick happens). A
	// pending-but-idle ticker does not prevent fast-forwarding — it is
	// simply ticked at whichever cycle the engine visits next.
	pending bool
}

// Engine drives a simulation: it owns simulated time, the set of
// cycle-accurate tickers, and the event queue used by analytical modules.
//
// Tickers are evaluated through an active set: each simulated cycle ticks,
// in registration order, only the tickers that are busy or were explicitly
// woken (see Ticker.SetWake).
type Engine struct {
	cycle   uint64
	seq     uint64
	entries []tickerEntry
	// active has one bit per registration index, set while the entry is on
	// the tick set: it is pending, or busy (as of its last Busy poll) and
	// not waiting. Walking the set bits upward is registration order.
	active []uint64
	// busyCount counts entries whose last poll reported busy; the all-idle
	// check is busyCount == 0.
	busyCount int
	// tickPos is where tickSerialRange starts its walk: tickCycle sets it
	// to 0 for the head and past the segment for the tail of a relaxed run.
	tickPos int
	modules []Module
	// ev holds the scheduled events; see events.go.
	ev eventStore

	// stats
	tickedCycles  uint64
	skippedCycles uint64
	firedEvents   uint64
	// moduleTicks counts Tick calls: host work, not simulated state, so it
	// is in no result and no checkpoint.
	moduleTicks uint64

	// tracing. traceOn caches tr.Enabled(ModuleLevel) so the run loop's
	// per-iteration observability cost with tracing off is one bool test.
	// Probes are sampled at visited cycles only — never via Schedule, which
	// would wake the engine at sample cycles and change ticked/skipped
	// counts (observation must not perturb simulation).
	tr         *obs.Tracer
	trTid      int32
	traceOn    bool
	probes     []probe
	nextSample uint64
	sampleIvl  uint64

	// the epoch-local segment; see parallel.go. nShards only range-checks
	// the shard arguments of RegisterSharded and ShardContext; pLo < 0 until
	// the first RegisterSharded.
	seg      segment
	nShards  int
	pLo, pHi int // contiguous registration-index range of segment entries
	// headHi is the run's execution mode, chosen once per RunCtx (beginRun):
	// the last registration index of tickCycle's serial head. pLo-1 stages
	// the segment (a relaxed run); maxInt lets the head cover every entry,
	// which is the plain serial tick (an exact run).
	headHi int
	// epochK > 1 makes the run relaxed: the segment runs epochK local cycles
	// per pass; see parallel.go.
	epochK int
	// deferScratch is the fold's retained buffer for releasing defers (no
	// per-epoch allocations in steady state).
	deferScratch []func()
}

// probe is a named read-only gauge sampled into the counter timeline.
type probe struct {
	name string
	fn   func() uint64
}

// DefaultSampleInterval is how many visited cycles pass between counter
// probe samples when tracing at ModuleLevel or above.
const DefaultSampleInterval = 256

// SetTracer installs the engine's tracer (nil turns tracing off). Call
// before Run; the engine registers its own track and emits fast-forward
// spans and probe samples at ModuleLevel.
func (e *Engine) SetTracer(t *obs.Tracer) {
	e.tr = t
	e.traceOn = t.Enabled(obs.ModuleLevel)
	if e.traceOn {
		e.trTid = t.RegisterTrack("engine")
		if e.sampleIvl == 0 {
			e.sampleIvl = DefaultSampleInterval
		}
	}
}

// Tracer returns the engine's tracer (nil when tracing is off), so
// modules wired to the same engine can share it.
func (e *Engine) Tracer() *obs.Tracer { return e.tr }

// AddProbe registers a gauge sampled into the trace's counter timeline
// every DefaultSampleInterval visited cycles (at ModuleLevel). fn must be
// a pure read of simulator state.
func (e *Engine) AddProbe(name string, fn func() uint64) {
	e.probes = append(e.probes, probe{name, fn})
}

// ActiveTickers returns the size of the active set — how many
// cycle-accurate modules are currently being ticked (a waiter off the tick
// set is busy but not counted).
func (e *Engine) ActiveTickers() int {
	n := 0
	for _, w := range e.active {
		n += bits.OnesCount64(w)
	}
	return n
}

// ModuleTicks returns the number of module Tick calls so far: the host
// work of the cycle-accurate modules, which the active set and the waiting
// class keep to the modules that can make progress.
func (e *Engine) ModuleTicks() uint64 { return e.moduleTicks }

// sample emits one counter timeline row at the current cycle.
func (e *Engine) sample() {
	e.tr.Counter(obs.ModuleLevel, "active_tickers", e.trTid, e.cycle, uint64(e.ActiveTickers()))
	for _, p := range e.probes {
		e.tr.Counter(obs.ModuleLevel, p.name, e.trTid, e.cycle, p.fn())
	}
	e.nextSample = e.cycle + e.sampleIvl
}

// New returns an empty engine at cycle 0.
func New() *Engine {
	e := &Engine{nShards: 1, pLo: -1, headHi: maxInt, epochK: 1}
	e.seg.e = e
	e.ev.init()
	return e
}

// Cycle returns the current simulated cycle.
func (e *Engine) Cycle() uint64 { return e.cycle }

// TickedCycles returns the number of cycles that were simulated by ticking
// (a proxy for cycle-accurate work performed).
func (e *Engine) TickedCycles() uint64 { return e.tickedCycles }

// SkippedCycles returns the number of cycles the engine fast-forwarded over
// because all tickers were idle (a proxy for work the hybrid configuration
// avoided).
func (e *Engine) SkippedCycles() uint64 { return e.skippedCycles }

// FiredEvents returns the number of scheduled events executed.
func (e *Engine) FiredEvents() uint64 { return e.firedEvents }

// ErrNotQuiescent reports an AdvanceTime call while the engine still holds
// pending work.
var ErrNotQuiescent = fmt.Errorf("engine: not quiescent: pending events or busy modules")

// AdvanceTime moves the clock forward by delta cycles without ticking any
// module — the analytical time-advance of sampled mode's launch replay: a
// memoized kernel's duration is added to simulated time as if it had run,
// with no per-cycle work. The engine must be quiescent (no scheduled
// events, no busy ticker); otherwise in-flight work would silently jump
// over the skipped interval and fire late. The advanced cycles count as
// fast-forwarded in the ticked/skipped decomposition.
func (e *Engine) AdvanceTime(delta uint64) error {
	if !e.Quiescent() {
		return ErrNotQuiescent
	}
	e.cycle += delta
	e.skippedCycles += delta
	return nil
}

// AddModule records a non-ticking module in the inventory.
func (e *Engine) AddModule(m Module) {
	e.modules = append(e.modules, m)
}

// Register adds a cycle-accurate ticker (and records it in the inventory).
// Tickers are ticked in registration order, so assemblies should register
// upstream modules (schedulers) before downstream ones (caches, DRAM). The
// ticker gets its wake callback installed here and enters the active set
// only while it has work.
func (e *Engine) Register(t Ticker) { e.register(t, false) }

// register is Register and RegisterSharded's common part; staged says the
// entry belongs to the epoch-local segment. It returns the registration
// index.
func (e *Engine) register(t Ticker, staged bool) int {
	idx := len(e.entries)
	en := tickerEntry{t: t, staged: staged}
	en.wait, _ = t.(Waiter)
	e.entries = append(e.entries, en)
	e.modules = append(e.modules, t)
	if idx>>6 == len(e.active) {
		e.active = append(e.active, 0)
	}
	t.SetWake(func() { e.activate(idx) })
	// Start pending so the first simulated cycle ticks every module once,
	// letting it publish its initial busy state.
	e.activate(idx)
	return idx
}

// activate marks entry idx pending and sets its bit in the active set. It
// is idempotent and cheap when the ticker is already active. An activation
// at or below the index the tick pass is at takes effect next cycle (the
// registration-order pass has already moved past it): a module woken by a
// later-registered module's tick sees the new state only on its next tick.
// A segment pass (parallel.go) walks the same bits, so the rule holds there
// too.
func (e *Engine) activate(idx int) {
	en := &e.entries[idx]
	en.pending = true
	w, bit := idx>>6, uint64(1)<<(idx&63)
	if e.active[w]&bit != 0 {
		return
	}
	e.active[w] |= bit
	// Poll Busy on insertion: a module woken at a position the current tick
	// pass has already visited is only ticked next cycle, but it must gate
	// fast-forwarding now. A returning waiter is still counted busy.
	if !en.busy && en.t.Busy() {
		en.busy = true
		e.busyCount++
	}
}

// ModuleInfo is one row of the engine's module inventory.
type ModuleInfo struct {
	Name string
	Kind ModelKind
}

// Inventory lists all registered modules with their modeling kinds, for the
// hybrid-configuration report.
func (e *Engine) Inventory() []ModuleInfo {
	inv := make([]ModuleInfo, len(e.modules))
	for i, m := range e.modules {
		inv[i] = ModuleInfo{Name: m.Name(), Kind: m.Kind()}
	}
	return inv
}

// Schedule runs fn after delay cycles. A delay of 0 runs fn at the current
// cycle if the engine has not yet processed events for it, otherwise at the
// next cycle boundary; analytical modules should use delays >= 1.
func (e *Engine) Schedule(delay uint64, fn func()) {
	e.enqueue(e.cycle+delay, fn, nil)
}

// ScheduleRetirement runs r's retirement (r.Retirement names its stage)
// after delay cycles. It is Schedule for the memory side's request
// completions, which the store keeps as the request so that a checkpoint can
// hold them.
func (e *Engine) ScheduleRetirement(delay uint64, r *mem.Request) {
	e.enqueue(e.cycle+delay, nil, r)
}

// ErrDeadlock is returned by Run when no ticker is busy, no events are
// pending, and the done predicate is still false.
var ErrDeadlock = fmt.Errorf("engine: deadlock: all modules idle but simulation incomplete")

// ErrCycleLimit is returned by Run when maxCycles elapses first.
var ErrCycleLimit = fmt.Errorf("engine: cycle limit reached")

// ErrCanceled is returned by RunCtx when the context is canceled or its
// deadline expires before the simulation completes. The returned error
// also wraps the context's error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) report the cause.
var ErrCanceled = fmt.Errorf("engine: run canceled")

// ctxPollInterval is how many scheduler-loop iterations pass between
// context polls. Polling a channel every cycle would dominate the hot
// loop; at 4096 iterations cancellation latency stays far below a
// millisecond of host time while the overhead is unmeasurable.
const ctxPollInterval = 4096

// Run advances the simulation until done reports true. It returns the final
// cycle. maxCycles (0 = unlimited) bounds simulated time to protect against
// livelock in misconfigured assemblies.
//
// Each simulated cycle proceeds as: fire all events scheduled for the
// cycle, then tick every ticker once. When no ticker reports Busy after a
// cycle completes, the engine advances time directly to the next pending
// event.
func (e *Engine) Run(done func() bool, maxCycles uint64) (uint64, error) {
	return e.RunCtx(nil, done, maxCycles)
}

// RunCtx is Run with cooperative cancellation: the context is polled every
// few thousand scheduler iterations and, once canceled, the run stops at
// the current cycle with an error wrapping both ErrCanceled and ctx.Err().
// A nil ctx behaves exactly like Run.
func (e *Engine) RunCtx(ctx context.Context, done func() bool, maxCycles uint64) (uint64, error) {
	if done() {
		return e.cycle, nil
	}
	if err := e.beginRun(); err != nil {
		return e.cycle, err
	}
	var cancelCh <-chan struct{}
	var deadline time.Time
	if ctx != nil {
		cancelCh = ctx.Done()
		deadline, _ = ctx.Deadline()
	}
	poll := ctxPollInterval // poll on the first iteration: catch pre-canceled contexts
	for {
		if cancelCh != nil {
			poll++
			if poll >= ctxPollInterval {
				poll = 0
				select {
				case <-cancelCh:
					return e.cycle, fmt.Errorf("%w at cycle %d: %w", ErrCanceled, e.cycle, ctx.Err())
				default:
					// A deadline closes Done from a runtime timer, which
					// runs when a P gets to it: up to a preemption quantum
					// (10 ms) late while every P is simulating. A job can be
					// shorter than that, so the poll reads the clock too.
					if !deadline.IsZero() && !time.Now().Before(deadline) {
						return e.cycle, fmt.Errorf("%w at cycle %d: %w", ErrCanceled, e.cycle, context.DeadlineExceeded)
					}
				}
			}
		}
		if maxCycles > 0 && e.cycle >= maxCycles {
			return e.cycle, fmt.Errorf("%w (%d cycles)", ErrCycleLimit, maxCycles)
		}

		e.fireDue()
		e.tickCycle()
		e.tickedCycles++
		if e.traceOn && e.cycle >= e.nextSample {
			e.sample()
		}
		if wakeCheck != nil {
			wakeCheck(e)
		}

		if done() {
			return e.cycle, nil
		}

		if e.anyBusy() {
			e.cycle++
			continue
		}
		// All tickers idle: fast-forward to the next event.
		next := e.ev.next
		if next == noEvent {
			return e.cycle, fmt.Errorf("%w at cycle %d", ErrDeadlock, e.cycle)
		}
		if next <= e.cycle {
			e.cycle++
		} else {
			if e.traceOn {
				e.tr.Span(obs.ModuleLevel, "engine", "fast-forward", e.trTid, e.cycle+1, next)
			}
			e.skippedCycles += next - e.cycle - 1
			e.cycle = next
		}
	}
}

// fireDue fires the events due at the current cycle, if any. It is only
// the test, small enough to inline into the run loop: most iterations of a
// cycle-by-cycle stretch have nothing due, and a call per iteration is
// measurable there (EXPERIMENTS.md, PR 12).
func (e *Engine) fireDue() {
	if e.ev.next <= e.cycle {
		e.fireBurst()
	}
}

// wakeCheck, when a test sets it, is called after every visited cycle.
var wakeCheck func(e *Engine)

// deactivate takes entry idx off the tick set.
func (e *Engine) deactivate(idx int) { e.active[idx>>6] &^= 1 << (idx & 63) }

// nextActive returns the lowest registration index >= from on the tick
// set, or maxInt when there is none. It reads the words afresh, so a bit a
// tick has just set above from is found.
func (e *Engine) nextActive(from int) int {
	w := from >> 6
	if w >= len(e.active) {
		return maxInt
	}
	if word := e.active[w] >> (from & 63); word != 0 {
		return from + bits.TrailingZeros64(word)
	}
	for w++; w < len(e.active); w++ {
		if e.active[w] != 0 {
			return w<<6 + bits.TrailingZeros64(e.active[w])
		}
	}
	return maxInt
}

// tickSerialRange walks the active set up from tickPos, ticking every
// entry whose registration index is <= hi, in registration order, and
// leaves tickPos just above hi. After each tick the entry's Busy() is
// re-polled: a ticker that is idle, or a waiter that is waiting, and is not
// re-woken leaves the active set and is not touched again until a wake; a
// waiter leaves still counted busy. Activations occurring during the pass
// (a scheduler assigning work to a downstream module, for instance) are
// ticked this same cycle when their registration index is above the entry
// being ticked. With hi = maxInt this is a serial run's whole cycle;
// otherwise it is the head or tail of a relaxed one (see tickCycle in
// parallel.go).
func (e *Engine) tickSerialRange(hi int) {
	hi = min(hi, len(e.entries)-1)
	for idx := e.nextActive(e.tickPos); idx <= hi; idx = e.nextActive(idx + 1) {
		en := &e.entries[idx]
		en.pending = false
		en.t.Tick(e.cycle)
		e.moduleTicks++
		nowBusy := en.t.Busy()
		if nowBusy != en.busy {
			en.busy = nowBusy
			if nowBusy {
				e.busyCount++
			} else {
				e.busyCount--
			}
		}
		if !en.pending && (!nowBusy || en.wait != nil && en.wait.Waiting()) {
			e.deactivate(idx)
		}
	}
	e.tickPos = hi + 1
}

// anyBusy reports whether any ticker still has per-cycle work: an O(1)
// counter check.
//
// In a relaxed run a pending segment entry also counts: the epoch's
// catch-up cycles skip the segment, so an entry woken by a staged
// completion event firing mid-catch-up has not been ticked since its wake
// and its polled Busy state is stale (an SM recomputes busyCache only
// inside Tick). An exact run has no such window — an event-phase wake is
// always followed by a same-cycle tick — so the scan is gated on epochK to
// keep the exact path O(1).
func (e *Engine) anyBusy() bool {
	if e.busyCount > 0 {
		return true
	}
	if e.epochK > 1 && e.pLo >= 0 {
		for idx := e.nextActive(e.pLo); idx <= e.pHi; idx = e.nextActive(idx + 1) {
			if e.entries[idx].pending {
				return true
			}
		}
	}
	return false
}

// Quiescent reports whether the engine holds no pending work at all: no
// scheduled events and no busy ticker, the condition AdvanceTime needs.
func (e *Engine) Quiescent() bool {
	return e.ev.next == noEvent && !e.anyBusy()
}
