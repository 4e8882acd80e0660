// Sharded (intra-simulation) execution: the staged cycle.
//
// SetParallel(n) splits the cycle-accurate tickers into n shards plus the
// implicit serial shard. Shard-private modules (an SM and its L1/i-cache)
// are registered with RegisterSharded and tick concurrently on persistent
// worker goroutines; shared modules (block scheduler, NoC, L2, DRAM) stay
// on plain Register and tick on the coordinator goroutine. SetEpoch(k)
// sets how many local cycles a shard runs between barriers. Every
// (shards, k) combination is advanced by the one routine tickCycle, which
// visits cycles [T, T+k-1] as:
//
//  1. serial head at T — active entries registered before the shard range
//     (the block scheduler);
//  2. snapshot — the active sharded segment is copied into the shards'
//     pass lists;
//  3. shard passes — every shard with active entries ticks them in
//     registration order for k local cycles, rebuilding its pass list from
//     its members' active flags between local cycles; the coordinator runs
//     one shard itself and wakes the others' workers through the
//     spin-then-park barrier (barrier.go). All cross-shard side effects
//     (Schedule, Defer) are staged into the shard's arena, tagged with the
//     absolute cycle they happened at, instead of being applied;
//  4. fold — shard busy deltas are summed, the active segment is rebuilt
//     if a pass changed its membership, and the staged records are
//     released in ascending (capture cycle, index<<1|phase) order: events
//     get their sequence numbers in that order, then the defers run in it.
//     At k = 1 every record carries the same cycle, so this is exactly the
//     serial engine's order, which is what makes metrics byte-identical at
//     any thread count. A barrier where no shard changed its active set
//     and nothing was staged skips all of it;
//  5. serial tail at T — active entries registered after the shard range
//     (NoC, L2, DRAM);
//  6. catch-up — for each remaining cycle T+1..T+k-1 (none at k = 1), fire
//     due events and run the serial head and tail; the sharded segment is
//     skipped, those modules already ran their local cycles.
//
// A cycle whose sharded segment is empty is just head and tail at T — no
// staging, no barrier, no catch-up — so idle stretches fast-forward event
// to event at any k. A serial run is the same routine with the head
// covering every entry (see beginRun).
//
// The only k-dependent decision is where PreTick (a module's drain into
// its downstream port) runs. At k = 1 the assembly keeps the sharded
// modules' shared downstream ports, whose backpressure depends on arrival
// order, so the drains are hoisted out of the concurrent passes into the
// snapshot step and run serially in registration order; Schedule calls
// made by the drained-into modules are staged (preStage, phase 0) so the
// fold interleaves them with the shard-staged events (phase 1) as the
// serial engine would have. At k > 1 the assembly must give every sharded
// module a shard-private downstream port (internal/sim's epoch boundary),
// and PreTick runs inside the pass immediately before Tick.
//
// k > 1 relaxes the semantics to *bounded staleness*:
//
//   - shard-local state is always exact — a shard never observes a future
//     value of its own modules;
//   - cross-shard effects are correct-or-late — an event captured at local
//     cycle T+j fires at its true cycle when that cycle has not yet been
//     visited, and at the next event phase otherwise (never early);
//   - serial modules run every cycle of the epoch in catch-up order after
//     the shards, consuming the staged traffic at the cycles it belongs to;
//   - the schedule is a pure function of (assembly, k): results are
//     independent of the shard count, thread count and host timing, so a
//     relaxed run is still reproducible bit for bit;
//   - done()/maxCycles are evaluated at epoch granularity, so a run may
//     overshoot its natural end by up to k-1 cycles; the error-envelope
//     harness in internal/regress quantifies the resulting metric drift.
//
// Wakes *within* a shard during a pass are applied locally with the same
// same-cycle visibility rule the serial active list uses. Wakes of a
// sharded entry from the serial phases go through the normal activate
// path. Modules must not wake another shard's entries from a shard tick —
// cross-shard interaction is only legal through Schedule/Defer (the
// standard assemblies interact across shards exclusively through memory
// ports and the block scheduler, which already obey this).
//
// Staging arenas: staged records and pass lists are per-shard slices that
// are truncated (never freed) at the barrier, so their capacity is
// retained across cycles and the steady-state sharded tick performs no
// heap allocation. A shard's arena is written only by its worker while
// staging is set and only by the coordinator otherwise; the barrier in
// barrier.go carries the happens-before edges between the two.
package engine

import (
	"fmt"
	"runtime/debug"
	"sort"
)

const maxInt = int(^uint(0) >> 1)

// Context is the part of the engine a shard-private module is allowed to
// touch. *Engine implements it; shardCtx implements it with staging during
// a shard pass. Modules that may be sharded hold a Context instead of a
// *Engine.
type Context interface {
	// Cycle returns the current simulated cycle (the shard's local cycle
	// during a pass).
	Cycle() uint64
	// TickedCycles returns the number of simulated (ticked) cycles.
	TickedCycles() uint64
	// Schedule runs fn after delay cycles. During a shard pass the event
	// is staged and enqueued at the barrier in deterministic order.
	Schedule(delay uint64, fn func())
	// Defer runs fn immediately outside a shard pass, and at the barrier
	// (in registration order of the staging module) during one. Use it for
	// side effects that escape the shard: completion notifications, trace
	// emits whose arguments are already computed.
	Defer(fn func())
}

// Defer on the engine itself runs fn immediately: outside a shard pass
// there is nothing to stage.
func (e *Engine) Defer(fn func()) { fn() }

// PreTicker is a Ticker whose per-cycle work starts by pushing into a
// downstream module (a cache draining its miss queue into the NoC). The
// engine runs PreTick immediately before Tick, except in exact staged
// cycles (k = 1), where it is hoisted into a serial pre-phase so the
// shared downstream sees pushes in registration order, not
// worker-interleaved order.
//
// Contract: a PreTicker holding undrained downstream work must report
// Busy. The pre-phase visits active entries only (as the serial engine
// does); an idle entry woken mid-pass by a same-shard sibling ticks that
// cycle but cannot drain until the next pre-phase — at k = 1 PreTick
// pushes into shared modules and so can never run on a worker goroutine.
// Keeping such a module Busy keeps it in the pre-phase snapshot, which is
// what makes the sharded schedule identical to the serial one. The
// standard cache models satisfy this naturally (non-empty miss queues are
// Busy).
type PreTicker interface {
	PreTick(cycle uint64)
}

// stagedOp is a Schedule or Defer call captured during a staged cycle,
// tagged with the registration index of the module that issued it and the
// absolute cycle it was issued at, so the fold can replay the serial
// engine's order.
type stagedOp struct {
	idx   int
	cyc   uint64
	delay uint64 // Schedule only
	fn    func()
	call  bool // a Defer: run fn at the barrier instead of enqueueing it
}

// shardCtx is one shard's staging context and pass state. During a pass
// (staging == true) it is touched only by its worker goroutine; outside a
// pass only by the coordinator. A shard that never runs a staged pass (a
// serial run) never stages: its Schedule and Defer forward to the engine.
type shardCtx struct {
	e     *Engine
	shard int

	// staging is set by the coordinator around the shard passes. While
	// set, Schedule/Defer/wakes stage instead of applying.
	staging bool

	// dirty records that the pass changed the shard's active membership
	// (an entry went idle, or a local wake activated one): the fold must
	// rebuild the global active segment.
	dirty bool

	// members lists every registration index owned by this shard, in
	// ascending order; passes rebuild the per-cycle list from it between
	// local cycles.
	members []int

	// pass state: list is the shard's active entries this cycle (ascending
	// registration index), lpos the cursor, current the index being ticked.
	list    []int
	lpos    int
	current int

	// k is the number of local cycles the dispatched pass runs; off is the
	// local cycle offset within it, so Cycle()/TickedCycles() report the
	// shard's local time.
	k   int
	off uint64

	// ops is the staged side-effect arena (truncated at the barrier,
	// capacity retained); pos is the fold cursor.
	ops       []stagedOp
	pos       int
	busyDelta int

	// worker plumbing (barrier.go).
	sig        shardSignal
	panicVal   any
	panicStack []byte
}

func (sc *shardCtx) Cycle() uint64        { return sc.e.cycle + sc.off }
func (sc *shardCtx) TickedCycles() uint64 { return sc.e.tickedCycles + sc.off }

func (sc *shardCtx) Schedule(delay uint64, fn func()) {
	if sc.staging {
		sc.ops = append(sc.ops, stagedOp{idx: sc.current, cyc: sc.Cycle(), delay: delay, fn: fn})
		return
	}
	sc.e.Schedule(delay, fn)
}

func (sc *shardCtx) Defer(fn func()) {
	if sc.staging {
		sc.ops = append(sc.ops, stagedOp{idx: sc.current, cyc: sc.Cycle(), fn: fn, call: true})
		return
	}
	fn()
}

// wakeLocal is activate's shard-pass twin: same pending/active/Busy-poll
// semantics, but the insertion targets the shard's pass list and the busy
// transition lands in the shard's delta. Visibility matches the serial
// rule — an entry woken after its registration index has been passed is
// ticked next cycle.
func (sc *shardCtx) wakeLocal(idx int, en *tickerEntry) {
	en.pending = true
	if en.active {
		return
	}
	en.active = true
	sc.dirty = true
	if idx > sc.current {
		tail := sc.list[sc.lpos+1:]
		pos := sc.lpos + 1 + sort.SearchInts(tail, idx)
		sc.list = append(sc.list, 0)
		copy(sc.list[pos+1:], sc.list[pos:])
		sc.list[pos] = idx
	}
	if en.t.Busy() && !en.busy {
		en.busy = true
		sc.busyDelta++
	}
}

// runPass ticks the shard's active entries for k local cycles, each in
// registration order, mirroring tickSerialRange: clear pending, Tick,
// re-poll Busy. Entries that go idle are only flagged (active = false);
// the coordinator rebuilds the global active list at the barrier. Between
// local cycles the pass list is rebuilt from the members' active flags, so
// entries that went idle drop out and entries woken locally (fills
// completing inside the shard) are picked up. At k > 1 PreTick runs here,
// immediately before Tick — with a shard-private downstream port that is
// the serial engine's drain-then-tick order for this module; at k = 1 the
// coordinator already ran it (see tickCycle).
func (sc *shardCtx) runPass(k int) {
	e := sc.e
	for off := 0; off < k; off++ {
		sc.off = uint64(off)
		if off > 0 {
			list := sc.list[:0]
			for _, idx := range sc.members {
				if e.entries[idx].active {
					list = append(list, idx)
				}
			}
			sc.list = list
			if len(list) == 0 {
				break
			}
		}
		cyc := e.cycle + sc.off
		for sc.lpos = 0; sc.lpos < len(sc.list); sc.lpos++ {
			idx := sc.list[sc.lpos]
			sc.current = idx
			en := &e.entries[idx]
			en.pending = false
			if k > 1 && en.pre != nil {
				en.pre.PreTick(cyc)
			}
			en.t.Tick(cyc)
			nowBusy := en.t.Busy()
			if nowBusy != en.busy {
				en.busy = nowBusy
				if nowBusy {
					sc.busyDelta++
				} else {
					sc.busyDelta--
				}
			}
			if !nowBusy && !en.pending {
				en.active = false
				sc.dirty = true
			}
		}
		sc.current = -1
	}
	sc.off = 0
}

// safePass runs the pass with panic isolation: a panicking module must not
// kill the worker goroutine (and with it the whole process) — the
// coordinator re-raises it as a *ShardPanic after the barrier.
func (sc *shardCtx) safePass() {
	defer func() {
		if r := recover(); r != nil {
			sc.panicVal = r
			sc.panicStack = debug.Stack()
		}
	}()
	sc.runPass(sc.k)
}

// ShardPanic wraps a panic raised inside a shard worker so the usual
// sim-goroutine recovery (runner panic isolation) sees a single structured
// value with the original stack attached.
type ShardPanic struct {
	Shard int
	Value any
	Stack []byte
}

func (p *ShardPanic) Error() string {
	return fmt.Sprintf("engine: panic in shard %d: %v", p.Shard, p.Value)
}

// SetParallel configures n execution shards (n < 1 is taken as 1). Call
// before registering sharded tickers. The assembly decides the shard count
// (typically min(EngineThreads, NumSMs)). One shard at k = 1 is the serial
// engine: RegisterSharded(t, 0) and ShardContext(0) then behave exactly
// like Register and the engine itself.
func (e *Engine) SetParallel(n int) {
	if n < 1 {
		n = 1
	}
	e.shards = make([]*shardCtx, n)
	for s := range e.shards {
		e.shards[s] = &shardCtx{e: e, shard: s, current: -1}
		e.shards[s].sig.wake = make(chan struct{}, 1)
	}
	e.coordWake = make(chan struct{}, 1)
}

// SetEpoch sets the relaxed-sync epoch length in cycles. k <= 1 keeps the
// exact barrier-per-cycle protocol (the default); k > 1 lets shards run k
// local cycles between barriers. Call before Run. The assembly enabling
// epochs must route every sharded module's downstream traffic through
// shard-private ports (bounded-staleness queues), because PreTick drains
// are then no longer hoisted into a serial pre-phase.
func (e *Engine) SetEpoch(k int) { e.epochK = max(k, 1) }

// EpochCycles returns the configured epoch length (1 = exact mode).
func (e *Engine) EpochCycles() int { return e.epochK }

// ShardContext returns shard s's Context. Modules registered into shard s
// must use it (not the engine) for Schedule/Defer so their side effects
// stage correctly during shard passes.
func (e *Engine) ShardContext(s int) Context { return e.shards[s] }

// RegisterSharded adds a shard-private cycle-accurate ticker to shard. All
// sharded tickers must occupy a contiguous registration range — serial
// modules register either before every sharded one (schedulers) or after
// (NoC, L2, DRAM); RunCtx validates this.
func (e *Engine) RegisterSharded(t Ticker, shard int) {
	if shard < 0 || shard >= len(e.shards) {
		panic(fmt.Sprintf("engine: RegisterSharded(%q): shard %d out of range [0,%d)", t.Name(), shard, len(e.shards)))
	}
	sc := e.shards[shard]
	idx := e.register(t, sc)
	sc.members = append(sc.members, idx)
	if e.pLo < 0 {
		e.pLo = idx
	}
	e.pHi = idx
}

// wakeEntry routes a sharded entry's wake to the right mechanism: during
// a shard pass, the entry is woken locally inside its own shard (the only
// legal waker at that point is the shard itself); everywhere else — event
// phase, PreTick drains, barrier fold, serial head/tail — the normal
// activate path applies. Serial entries bypass this and wake through
// activate directly (see register).
func (e *Engine) wakeEntry(idx int) {
	en := &e.entries[idx]
	if sc := en.sctx; sc.staging {
		sc.wakeLocal(idx, en)
		return
	}
	e.activate(idx)
}

// beginRun picks the run's execution mode, once. The sharded segment is
// staged when the run is relaxed (k > 1 has no serial equivalent, so it
// stages even with one shard or no workers, inline on the coordinator) or
// when startWorkers brought workers up; otherwise the head covers every
// entry — the staged protocol exists precisely to reproduce the serial
// order, so an exact run without workers ticks serially, byte-identical
// by construction, and saves the per-cycle staging cost where no speedup
// was available anyway. It also verifies that the sharded registration
// range [pLo, pHi] contains no serial entries, which the
// head/segment/tail split depends on.
func (e *Engine) beginRun() error {
	e.headHi = maxInt
	if e.pLo < 0 {
		return nil
	}
	for idx := e.pLo; idx <= e.pHi; idx++ {
		if e.entries[idx].sctx == nil {
			return fmt.Errorf("engine: sharded tickers must be registered contiguously: ticker %d (%s) inside shard range [%d,%d] is serial",
				idx, e.entries[idx].t.Name(), e.pLo, e.pHi)
		}
	}
	e.startWorkers()
	if e.epochK > 1 || e.workersUp {
		e.headHi = e.pLo - 1
	}
	return nil
}

// tickCycle advances the engine by one barrier interval — one cycle, or
// one epoch of epochK cycles when the sharded segment has work; see the
// file comment for the steps. On return e.cycle sits at the interval's
// last cycle and e.tickedCycles has been advanced for all but one of its
// cycles (the run loop's own increment covers the last).
func (e *Engine) tickCycle() {
	e.tickPos = 0
	e.tickSerialRange(e.headHi)
	catchUp := 0
	if e.headHi != maxInt && e.segCount > 0 {
		// The sharded entries sit in segCount contiguous positions of the
		// active list starting here. Snapshot them first: a hoisted
		// PreTick may wake entries and move the list under the loop.
		segStart := e.tickPos
		k := e.epochK
		seg := append(e.segScratch[:0], e.active[segStart:segStart+e.segCount]...)
		e.segScratch = seg
		e.preStaging = k == 1
		for _, idx := range seg {
			en := &e.entries[idx]
			if e.preStaging && en.pre != nil {
				e.preIdx = idx
				en.pre.PreTick(e.cycle)
			}
			en.sctx.list = append(en.sctx.list, idx)
		}
		e.preStaging = false
		e.dispatchShards(k)
		e.fold(segStart)
		catchUp = k - 1
	}
	e.tickSerialRange(maxInt)
	for ; catchUp > 0; catchUp-- {
		// Entries of the segment woken meanwhile (fill completions) tick at
		// the next epoch.
		e.tickPos = -1
		e.cycle++
		e.tickedCycles++
		e.fireDue()
		e.tickPos = 0
		e.tickSerialRange(e.headHi)
		e.tickPos += e.segCount
		e.tickSerialRange(maxInt)
	}
	e.tickPos = -1
}

// fold is the barrier's serial half: sum the shards' busy deltas, rebuild
// the active segment if a pass changed its membership, release what was
// staged, and leave tickPos at the first tail entry.
func (e *Engine) fold(segStart int) {
	dirty, staged := false, len(e.preStage) > 0
	for _, sc := range e.shards {
		e.busyCount += sc.busyDelta
		sc.busyDelta = 0
		sc.list = sc.list[:0]
		dirty = dirty || sc.dirty
		sc.dirty = false
		staged = staged || len(sc.ops) > 0
	}
	if dirty {
		// segCount still holds the pre-pass segment length, so the old
		// segment occupies [segStart, segStart+segCount).
		segEnd := segStart + e.segCount
		seg := e.segScratch[:0]
		for idx := e.pLo; idx <= e.pHi; idx++ {
			if e.entries[idx].active {
				seg = append(seg, idx)
			}
		}
		e.segScratch = seg
		na := append(e.activeScratch[:0], e.active[:segStart]...)
		na = append(na, seg...)
		na = append(na, e.active[segEnd:]...)
		e.activeScratch, e.active = e.active, na
		e.segCount = len(seg)
	}
	if staged {
		e.releaseStaged()
	}
	// Every entry up to pHi has had its turn this cycle. The tail resumes
	// at the first entry above it, found by index rather than position so
	// that a tail entry a defer just woke still ticks this cycle.
	e.tickPos = sort.SearchInts(e.active, e.pHi+1)
}

// releaseStaged merges preStage (phase 0: drain-time events) and the
// shards' arenas (phase 1: tick-time events and defers) by ascending
// (capture cycle, registration index<<1|phase). Each source is already
// sorted by that key (passes run cycle by cycle in registration order), so
// this is a k-way merge over one cursor per source. Events get their
// sequence numbers in merge order; an event fires at its capture cycle
// plus its delay, which in an epoch may lie in the barrier's past — the
// heap push still works, and the next event phase fires it: late, never
// early. Defers are collected in merge order and run once every staged
// event is enqueued. They run with staging off, against the rebuilt active
// list, so anything they do (wake the block scheduler, emit a trace event,
// schedule) applies directly on the coordinator.
func (e *Engine) releaseStaged() {
	calls := e.deferScratch[:0]
	pc := 0
	for {
		var best *stagedOp
		var from *shardCtx
		bestKey := 0
		if pc < len(e.preStage) {
			best = &e.preStage[pc]
			bestKey = best.idx << 1
		}
		for _, sc := range e.shards {
			if sc.pos == len(sc.ops) {
				continue
			}
			op := &sc.ops[sc.pos]
			if key := op.idx<<1 | 1; best == nil || op.cyc < best.cyc || (op.cyc == best.cyc && key < bestKey) {
				best, from, bestKey = op, sc, key
			}
		}
		if best == nil {
			break
		}
		if from == nil {
			pc++
		} else {
			from.pos++
		}
		if best.call {
			calls = append(calls, best.fn)
		} else {
			e.seq++
			e.events.push(event{cycle: best.cyc + best.delay, seq: e.seq, fn: best.fn})
		}
		best.fn = nil
	}
	e.preStage = e.preStage[:0]
	for _, sc := range e.shards {
		sc.ops = sc.ops[:0]
		sc.pos = 0
	}
	for i, fn := range calls {
		calls[i] = nil
		fn()
	}
	e.deferScratch = calls[:0]
}
