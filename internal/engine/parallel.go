// Relaxed epochs: the epoch-local segment.
//
// A simulation runs on the goroutine that called RunCtx. An exact run
// (SetEpoch never called, or k = 1) is the serial tick: every active entry
// in registration order, every cycle. SetEpoch(k) with k > 1 makes the run
// relaxed: the modules registered with RegisterSharded (an SM and its
// L1/i-cache) form the epoch-local segment, which runs k local cycles at a
// stretch while the modules around it (block scheduler before; NoC, L2,
// DRAM after) stay on plain Register and catch up afterwards. tickCycle
// visits cycles [T, T+k-1] as:
//
//  1. serial head at T — active entries registered before the segment
//     (the block scheduler);
//  2. segment pass — the segment's active entries tick in registration
//     order for k local cycles, each local cycle a walk of the active
//     set's bits over [pLo, pHi]. Everything that leaves the segment
//     (Schedule, Defer) is staged into its arena, an event with the
//     absolute cycle it was scheduled at, instead of being applied;
//  3. fold — the staged records are released in arena order, which is
//     ascending (capture cycle, registration index): events get their
//     sequence numbers in that order, then the defers run in it;
//  4. serial tail at T — active entries registered after the segment
//     (NoC, L2, DRAM);
//  5. catch-up — for each remaining cycle T+1..T+k-1, fire due events and
//     run the serial head and tail; the segment is skipped, its modules
//     already ran their local cycles.
//
// A cycle whose segment is empty is just head and tail at T — no staging,
// no catch-up — so idle stretches fast-forward event to event at any k.
//
// A segment module's Tick pushes into its downstream port (a cache drains
// its miss queue first) inside the pass, so a relaxed assembly must give
// every segment module a segment-private downstream port (internal/sim's
// epoch boundary).
//
// k > 1 relaxes the semantics to *bounded staleness*:
//
//   - segment-local state is always exact — a segment module never
//     observes a future value of another;
//   - effects that leave the segment are correct-or-late — an event
//     captured at local cycle T+j fires at its true cycle when that cycle
//     has not yet been visited, and at the next event phase otherwise
//     (never early);
//   - serial modules run every cycle of the epoch in catch-up order after
//     the segment, consuming the staged traffic at the cycles it belongs
//     to;
//   - the schedule is a pure function of (assembly, k), so a relaxed run is
//     reproducible bit for bit;
//   - done()/maxCycles are evaluated at epoch granularity, so a run may
//     overshoot its natural end by up to k-1 cycles; the error-envelope
//     harness in internal/regress quantifies the resulting metric drift.
//
// Every wake sets the entry's bit in the one active set, so a wake within
// the segment during a pass follows the serial visibility rule against the
// pass's cursor. Segment modules must not wake a serial entry from their
// tick — that is only legal through Schedule/Defer (the standard assemblies
// reach the serial modules exclusively through memory ports and the block
// scheduler, which already obey this).
//
// The staging arena is a slice truncated (never freed) at the fold, so its
// capacity is retained and a steady-state epoch performs no heap
// allocation.
//
// SetParallel, RegisterSharded's shard argument and ShardContext's exist for
// callers written against a sharded engine (the frozen benchmark harness
// under bench/): every shard index names the one segment.
package engine

import (
	"fmt"

	"swiftsim/internal/mem"
)

const maxInt = int(^uint(0) >> 1)

// Context is the part of the engine a segment module is allowed to touch.
// *Engine implements it; the segment implements it with staging during its
// pass. Modules that may be registered into the segment hold a Context
// instead of a *Engine.
type Context interface {
	// Cycle returns the current simulated cycle (the segment's local cycle
	// during a pass).
	Cycle() uint64
	// TickedCycles returns the number of simulated (ticked) cycles.
	TickedCycles() uint64
	// Schedule runs fn after delay cycles. During a segment pass the event
	// is staged and enqueued at the fold in deterministic order.
	Schedule(delay uint64, fn func())
	// ScheduleRetirement runs r's retirement after delay cycles, staged
	// like Schedule during a segment pass.
	ScheduleRetirement(delay uint64, r *mem.Request)
	// Defer runs fn immediately outside a segment pass, and at the fold (in
	// the order the calls were made) during one. Use it for side effects
	// that escape the segment: completion notifications, trace emits whose
	// arguments are already computed.
	Defer(fn func())
}

// Defer on the engine itself runs fn immediately: outside a segment pass
// there is nothing to stage.
func (e *Engine) Defer(fn func()) { fn() }

// stagedOp is a Schedule, ScheduleRetirement or Defer call captured during a
// segment pass. A scheduled event carries the absolute cycle it was issued
// at and its delay.
type stagedOp struct {
	cyc   uint64
	delay uint64
	fn    func()
	r     *mem.Request // a ScheduleRetirement's request
	call  bool         // a Defer: run fn at the fold instead of enqueueing it
}

// segment is the epoch-local segment's staging context and pass state. In
// an exact run it never stages: its Schedule and Defer forward to the
// engine.
type segment struct {
	e *Engine

	// staging is set around the pass. While set, Schedule/Defer stage
	// instead of applying.
	staging bool

	// off is the local cycle offset within the pass, so
	// Cycle()/TickedCycles() report the segment's local time.
	off uint64

	// ops is the staged side-effect arena (truncated at the fold, capacity
	// retained).
	ops []stagedOp
}

func (sg *segment) Cycle() uint64        { return sg.e.cycle + sg.off }
func (sg *segment) TickedCycles() uint64 { return sg.e.tickedCycles + sg.off }

func (sg *segment) Schedule(delay uint64, fn func()) { sg.schedule(delay, fn, nil) }

func (sg *segment) ScheduleRetirement(delay uint64, r *mem.Request) { sg.schedule(delay, nil, r) }

// schedule stages an event during the pass and enqueues it otherwise.
func (sg *segment) schedule(delay uint64, fn func(), r *mem.Request) {
	if sg.staging {
		sg.ops = append(sg.ops, stagedOp{cyc: sg.Cycle(), delay: delay, fn: fn, r: r})
		return
	}
	sg.e.enqueue(sg.e.cycle+delay, fn, r)
}

func (sg *segment) Defer(fn func()) {
	if sg.staging {
		sg.ops = append(sg.ops, stagedOp{fn: fn, call: true})
		return
	}
	fn()
}

// segmentActive reports whether any segment entry is on the tick set.
func (e *Engine) segmentActive() bool { return e.pLo >= 0 && e.nextActive(e.pLo) <= e.pHi }

// runPass ticks the segment's active entries for k local cycles, each in
// registration order, mirroring tickSerialRange: clear pending, Tick,
// re-poll Busy. An entry that goes idle leaves the active set (a
// waiting one stays), and a wake from a segment module's tick sets its
// bit, so the walk picks it up this local cycle above the cursor and the
// next one below it. The pass ends early once the segment has no active
// entry.
func (sg *segment) runPass(k int) {
	e := sg.e
	sg.staging = true
	for off := 0; off < k; off++ {
		sg.off = uint64(off)
		if off > 0 && !e.segmentActive() {
			break
		}
		cyc := e.cycle + sg.off
		for idx := e.nextActive(e.pLo); idx <= e.pHi; idx = e.nextActive(idx + 1) {
			en := &e.entries[idx]
			en.pending = false
			en.t.Tick(cyc)
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
			if !nowBusy && !en.pending {
				e.deactivate(idx)
			}
		}
	}
	sg.off = 0
	sg.staging = false
}

// SetParallel declares how many shard indices RegisterSharded and
// ShardContext accept (n < 1 is taken as 1, which is also the default).
// The count selects nothing else: every shard index names the one
// epoch-local segment, and the run stays on the caller's goroutine.
func (e *Engine) SetParallel(n int) { e.nShards = max(n, 1) }

// SetEpoch sets the relaxed-sync epoch length in cycles. k <= 1 keeps the
// exact serial tick (the default); k > 1 lets the segment run k local
// cycles per pass. Call before Run. The assembly enabling epochs must route
// every segment module's downstream traffic through segment-private ports
// (bounded-staleness queues), because their ticks' pushes then run inside
// the pass.
func (e *Engine) SetEpoch(k int) { e.epochK = max(k, 1) }

// EpochCycles returns the configured epoch length (1 = exact).
func (e *Engine) EpochCycles() int { return e.epochK }

// checkShard panics, naming the caller, when shard is not an index
// SetParallel declared. caller is only called to build the message, so a
// valid registration allocates nothing here.
func (e *Engine) checkShard(shard int, caller func() string) {
	if shard < 0 || shard >= e.nShards {
		panic(fmt.Sprintf("engine: %s: shard %d out of range [0,%d)", caller(), shard, e.nShards))
	}
}

// ShardContext returns the segment's Context, whichever valid shard index s
// is. Modules registered with RegisterSharded must use it (not the engine)
// for Schedule/Defer so their side effects stage during a relaxed pass; in
// an exact run it behaves exactly like the engine itself.
func (e *Engine) ShardContext(s int) Context {
	e.checkShard(s, func() string { return "ShardContext" })
	return &e.seg
}

// RegisterSharded adds a cycle-accurate ticker to the epoch-local segment,
// whichever valid shard index shard is; in an exact run it behaves exactly
// like Register. All segment tickers must occupy a contiguous registration
// range — serial modules register either before every one of them
// (schedulers) or after (NoC, L2, DRAM); RunCtx validates this.
func (e *Engine) RegisterSharded(t Ticker, shard int) {
	e.checkShard(shard, func() string { return fmt.Sprintf("RegisterSharded(%q)", t.Name()) })
	idx := e.register(t, true)
	if e.pLo < 0 {
		e.pLo = idx
	}
	e.pHi = idx
}

// beginRun picks the run's execution mode, once: a relaxed run (k > 1)
// stages the segment, otherwise the head covers every entry. It also
// verifies that the segment's registration range [pLo, pHi] contains no
// serial entries, which the head/segment/tail split depends on.
func (e *Engine) beginRun() error {
	e.headHi = maxInt
	if e.pLo < 0 {
		return nil
	}
	for idx := e.pLo; idx <= e.pHi; idx++ {
		if !e.entries[idx].staged {
			return fmt.Errorf("engine: sharded tickers must be registered contiguously: ticker %d (%s) inside shard range [%d,%d] is serial",
				idx, e.entries[idx].t.Name(), e.pLo, e.pHi)
		}
	}
	if e.epochK > 1 {
		e.headHi = e.pLo - 1
	}
	return nil
}

// tickCycle advances the engine by one cycle, or by one epoch of epochK
// cycles when the run is relaxed and the segment has work; see the file
// comment for the steps. On return e.cycle sits at the interval's last
// cycle and e.tickedCycles has been advanced for all but one of its cycles
// (the run loop's own increment covers the last).
func (e *Engine) tickCycle() {
	e.tickPos = 0
	e.tickSerialRange(e.headHi)
	catchUp := 0
	if e.headHi != maxInt && e.segmentActive() {
		e.seg.runPass(e.epochK)
		if len(e.seg.ops) > 0 {
			e.releaseStaged()
		}
		// Every entry up to pHi has had its turn this cycle; the tail
		// resumes above it, so a tail entry a defer just woke still ticks
		// this cycle.
		e.tickPos = e.pHi + 1
		catchUp = e.epochK - 1
	}
	e.tickSerialRange(maxInt)
	for ; catchUp > 0; catchUp-- {
		// Entries of the segment woken meanwhile (fill completions) tick at
		// the next epoch.
		e.cycle++
		e.tickedCycles++
		e.fireDue()
		e.tickPos = 0
		e.tickSerialRange(e.headHi)
		e.tickPos = e.pHi + 1
		e.tickSerialRange(maxInt)
	}
}

// releaseStaged walks the arena, which the pass filled cycle by cycle in
// registration order, so it is already in the serial engine's order.
// Events get their sequence numbers in that order; an event fires at its
// capture cycle plus its delay, which is never before the fold's cycle (the
// pass starts there) but may be the fold's cycle itself, whose event phase
// is over — the next event phase fires it: late, never early.
// Defers are collected in the same order and run once every staged event is
// enqueued. They run with staging off, so anything they do (wake the block
// scheduler, emit a trace event, schedule) applies directly.
func (e *Engine) releaseStaged() {
	calls := e.deferScratch[:0]
	ops := e.seg.ops
	for i := range ops {
		op := &ops[i]
		if op.call {
			calls = append(calls, op.fn)
		} else {
			e.enqueue(op.cyc+op.delay, op.fn, op.r)
		}
		op.fn, op.r = nil, nil
	}
	e.seg.ops = ops[:0]
	for i, fn := range calls {
		calls[i] = nil
		fn()
	}
	e.deferScratch = calls[:0]
}
