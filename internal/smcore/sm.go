package smcore

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"swiftsim/internal/config"
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/obs"
	"swiftsim/internal/trace"
)

// UnitSet supplies the execution units of each sub-core. Assemblies choose
// the modeling style per unit here: the detailed simulator installs
// cycle-accurate ALUPipelines and LDSTUnits, Swift-Sim-Basic swaps the ALUs
// for analytical models, Swift-Sim-Memory also swaps the LD/ST unit.
// Providers may return instances shared by sub-cores of one SM (e.g. one
// DP pipeline per two sub-cores, Table II's "DP:0.5x"), not by two SMs: an
// SM ticks a cycle-accurate unit only while that SM's busy-unit set holds
// it.
type UnitSet struct {
	// ALU returns the unit executing the given arithmetic class
	// (OpInt, OpSP, OpDP, OpSFU) for sub-core sub of SM smID.
	ALU func(smID, sub int, class trace.OpClass) Unit
	// LDST returns the load/store unit for sub-core sub of SM smID.
	LDST func(smID, sub int) Unit
	// ICache optionally returns a per-sub-core instruction cache, and with
	// it the detailed front end: instructions are fetched through the cache
	// into per-warp instruction buffers every cycle before they become
	// eligible for issue. nil runs without either (the hybrid
	// configurations simplify both away).
	ICache func(smID, sub int) *ICache
	// Scheduler optionally installs a custom warp-scheduling policy per
	// sub-core, overriding the configuration's built-in policy — the
	// paper's new-warp-scheduler exploration hook. nil keeps the
	// configured GTO/LRR/oldest-first policy.
	Scheduler func(smID, sub int) Picker
}

// residentBlock tracks one thread block resident on an SM.
type residentBlock struct {
	sm        *SM
	index     int    // block index within the kernel
	warps     []Warp // one slice per AssignBlock
	liveWarps int
	atBarrier int
	regs      int
	shmem     int
	// launchCycle is the assignment cycle, recorded only while tracing so
	// blockDone can emit the block's residency span.
	launchCycle uint64
	// next links the block into its class's free list once it is done.
	next *residentBlock
}

func (b *residentBlock) barrierArrive() {
	b.atBarrier++
	b.maybeRelease()
}

func (b *residentBlock) maybeRelease() {
	if b.liveWarps > 0 && b.atBarrier >= b.liveWarps {
		b.atBarrier = 0
		for i := range b.warps {
			w := &b.warps[i]
			w.atBarrier = false
			w.sc.refresh(w)
		}
	}
}

func (b *residentBlock) warpDone() {
	b.liveWarps--
	if b.liveWarps == 0 {
		b.sm.blockDone(b)
		return
	}
	// A warp exiting may satisfy a barrier its siblings wait on.
	b.maybeRelease()
}

// subCore is one warp-scheduler partition of an SM.
// Front-end parameters of the detailed configuration: per-warp
// instruction-buffer depth and fetches per cycle per sub-core.
const (
	ibufDepth     = 2
	fetchPerCycle = 2
)

type subCore struct {
	sm    *SM
	index int
	warps []*Warp
	// ready is the ready set: bit i is set exactly when warps[i] holds a
	// warp and that warp is issuable(). The policies and Busy read it where
	// they used to rescan every slot each tick, so it must be refreshed
	// (refresh) wherever a field issuable() reads changes: pc, the
	// scoreboard, ibuf, atBarrier, exited, and slot residency (done only
	// ever follows exited). Those places are addWarp and removeWarp, the
	// three arms of dispatch, inflight.complete, residentBlock.maybeRelease
	// and fetch (after every ibuf++). A new Warp field that issuable() reads
	// needs a refresh at every write.
	ready []uint64
	// wants is the fetch set: bit i is set exactly when warps[i] holds a
	// warp that wantsFetch(ibufDepth). refresh keeps it beside ready (every
	// field wantsFetch reads, pc, ibuf, exited and residency, changes at a
	// refresh point), and only under the detailed front end: without an
	// instruction cache ibuf stays -1 and the set stays empty.
	wants []uint64
	// cand is issueOldest's scratch copy of ready, minus the warps whose
	// dispatch the round has seen refused.
	cand []uint64
	// resident counts the occupied warp slots.
	resident int

	units  [4]Unit // indexed by trace.OpInt..trace.OpSFU
	ldst   Unit
	icache *ICache // nil when the configuration simplifies it away
	picker Picker  // nil = built-in policy; installed by setPicker
	// unitIdx and ldstIdx are the units' indices in SM.unitList, the bits
	// of SM.busyUnits they own; -1 for an analytical unit, which is never
	// ticked.
	unitIdx [4]int
	ldstIdx int
	// tried is issueCustom's predicate for Picker.Pick, bound once when the
	// picker is installed so a scheduling round allocates nothing.
	tried       func(*Warp) bool
	last        *Warp  // GTO greedy target
	cursor      int    // LRR rotation point
	fetchCursor int    // front-end round-robin point
	epoch       uint64 // scheduling round for allocation-free retries
}

// fetch runs the detailed front-end: fill per-warp instruction buffers
// through the instruction cache, round-robin, up to fetchPerCycle fetches.
// It visits the fetch set's slots in the order the slot scan it replaced
// did: the cursor moves to each fetched slot inside the loop, so after a
// first fetch k slots past the cursor the second resumes k+1 slots past
// that fetch, not one, and may fetch the same warp again (ROADMAP.md
// records the quirk). The order of ICache.Ready calls decides fills,
// prefetches and evictions, so it must not change.
func (sc *subCore) fetch(cycle uint64) {
	if !sc.fetchPending() {
		return
	}
	n := len(sc.warps)
	fetched := 0
	for i := 1; i <= n && fetched < fetchPerCycle; i++ {
		idx := (sc.fetchCursor + i) % n
		if !hasBit(sc.wants, idx) {
			continue
		}
		w := sc.warps[idx]
		pc := w.insts[w.pc+w.ibuf].PC
		if !sc.icache.Ready(pc, cycle) {
			continue
		}
		w.ibuf++
		sc.refresh(w)
		fetched++
		sc.fetchCursor = idx
	}
}

// fetchPending reports whether some warp still needs front-end work.
func (sc *subCore) fetchPending() bool { return anyBit(sc.wants) }

// refresh brings w's bit of the ready set in line with w.issuable(), which
// stays the one definition of "issuable", and under the front end w's bit
// of the fetch set in line with w.wantsFetch.
func (sc *subCore) refresh(w *Warp) {
	setBit(sc.ready, w.slot, w.issuable())
	if sc.icache != nil {
		setBit(sc.wants, w.slot, w.wantsFetch(ibufDepth))
	}
}

// setBit sets or clears bit slot of a slot set.
func setBit(set []uint64, slot int, on bool) {
	bit := uint64(1) << (slot & 63)
	if on {
		set[slot>>6] |= bit
	} else {
		set[slot>>6] &^= bit
	}
}

// hasBit reports whether bit slot of a slot set is set.
func hasBit(set []uint64, slot int) bool {
	return set[slot>>6]&(1<<(slot&63)) != 0
}

// anyBit reports whether a slot set has any bit set.
func anyBit(set []uint64) bool {
	for _, word := range set {
		if word != 0 {
			return true
		}
	}
	return false
}

// isReady reports whether the warp in slot is issuable.
func (sc *subCore) isReady(slot int) bool { return hasBit(sc.ready, slot) }

// issue performs one scheduling round: pick a ready warp per the policy
// and dispatch its next instruction. Returns true if an instruction issued.
func (sc *subCore) issue(cycle uint64) bool {
	sc.epoch++
	if sc.picker != nil {
		return sc.issueCustom(cycle)
	}
	switch sc.sm.cfg.Scheduler {
	case config.GTO:
		if l := sc.last; l != nil && sc.isReady(l.slot) && sc.dispatch(l, cycle) {
			return true
		}
		return sc.issueOldest(cycle)
	case config.LRR:
		n := len(sc.warps)
		for i := 1; i <= n; i++ {
			slot := (sc.cursor + i) % n
			if sc.isReady(slot) && sc.dispatch(sc.warps[slot], cycle) {
				sc.cursor = slot
				return true
			}
		}
		return false
	default: // OldestFirst
		return sc.issueOldest(cycle)
	}
}

func (sc *subCore) issueOldest(cycle uint64) bool {
	// Repeatedly try candidates in age order; a warp whose unit is busy
	// does not block younger warps (the dispatch stage skips it). The
	// candidates are the ready set's bits; a refused one is dropped from a
	// scratch copy, made only then since most rounds issue at the first try
	// — this path runs every simulated cycle.
	words, refused := sc.ready, false
	for {
		var best *Warp
		for wi, word := range words {
			for ; word != 0; word &= word - 1 {
				w := sc.warps[wi<<6+bits.TrailingZeros64(word)]
				if best == nil || w.Age < best.Age {
					best = w
				}
			}
		}
		if best == nil {
			return false
		}
		if sc.dispatch(best, cycle) {
			return true
		}
		if !refused {
			refused = true
			copy(sc.cand, sc.ready)
			words = sc.cand
		}
		words[best.slot>>6] &^= 1 << (best.slot & 63)
	}
}

// dispatch hands w's next instruction to its unit. Control instructions
// (barrier, exit) retire in the scheduler itself.
func (sc *subCore) dispatch(w *Warp, cycle uint64) bool {
	in := w.next()
	switch {
	case in.Op == trace.OpBarrier:
		w.pc++
		w.consumeIBuf()
		w.atBarrier = true
		sc.refresh(w)
		sc.sm.issued.Inc()
		sc.last = w
		w.block.barrierArrive()
		return true
	case in.Op == trace.OpExit:
		w.pc++
		w.consumeIBuf()
		w.exited = true
		sc.refresh(w)
		sc.sm.issued.Inc()
		if sc.last == w {
			sc.last = nil
		}
		w.maybeComplete()
		return true
	default:
		u, idx := sc.ldst, sc.ldstIdx
		if !in.Op.IsMem() {
			u, idx = sc.units[in.Op], sc.unitIdx[in.Op]
		}
		f := sc.sm.takeInflight(w, in.Dst)
		if !u.TryIssue(cycle, in, f.done) {
			f.release()
			return false
		}
		// The one place a unit leaves the idle state (the Unit contract).
		// A shared-memory access only schedules its completion and leaves
		// the LD/ST unit idle, so the bit follows Busy, not the issue.
		if idx >= 0 && u.Busy() {
			setBit(sc.sm.busyUnits, idx, true)
		}
		w.sb.set(in.Dst)
		w.outstanding++
		w.pc++
		w.consumeIBuf()
		sc.refresh(w)
		sc.sm.issued.Inc()
		sc.last = w
		return true
	}
}

// inflight is the writeback record of one issued, incomplete instruction:
// what its completion needs, with done bound once to complete so that
// handing it to Unit.TryIssue allocates nothing. Records come from the SM
// class's slab, a chunk at a time, and are recycled through its free list.
type inflight struct {
	sm   *SM
	w    *Warp
	dst  trace.Reg
	done func()
	next *inflight // the next free record
}

// inflightChunk is how many in-flight records an SM class allocates at a
// time.
const inflightChunk = 64

// takeInflight returns a record for w's instruction writing dst.
func (sm *SM) takeInflight(w *Warp, dst trace.Reg) *inflight {
	c := sm.class
	f := c.free
	if f != nil {
		c.free = f.next
	} else {
		f = c.inflights.One()
		f.done = f.complete
	}
	f.sm, f.w, f.dst = sm, w, dst
	return f
}

// release puts f back on its class's free list.
func (f *inflight) release() {
	c := f.sm.class
	f.sm, f.w, f.next = nil, nil, c.free
	c.free = f
}

// complete is the unit's writeback acknowledgment. The record returns to
// the free list first: nothing below issues, and the unit that called it
// is done with it.
func (f *inflight) complete() {
	sm, w, dst := f.sm, f.w, f.dst
	f.release()
	// A completing instruction may make the warp (or a sibling past a
	// barrier) issuable: re-activate the SM so the next cycle ticks it.
	sm.wake()
	w.sb.clear(dst)
	w.sc.refresh(w)
	w.outstanding--
	w.maybeComplete()
	if readyCheck != nil {
		readyCheck(sm, false)
	}
}

func (w *Warp) maybeComplete() {
	if w.exited && !w.done && w.outstanding == 0 && w.next() == nil {
		w.done = true
		w.block.warpDone()
	}
}

// anyIssuable reports whether some resident warp could issue (ignoring
// unit availability); it drives SM.Busy so the engine keeps ticking while
// forward progress is possible.
func (sc *subCore) anyIssuable() bool { return anyBit(sc.ready) }

func (sc *subCore) addWarp(w *Warp) error {
	for i, slot := range sc.warps {
		if slot == nil {
			sc.warps[i] = w
			w.sc, w.slot = sc, i
			sc.resident++
			sc.refresh(w)
			return nil
		}
	}
	// Capacity is enforced by SM.CanAccept and validated at assembly time;
	// reaching here means the residency accounting diverged from the slot
	// state. Surface it as an error (via the Block Scheduler) so one bad
	// configuration fails its own run instead of killing the process.
	return fmt.Errorf("smcore: sub-core %d.%d warp slots exhausted", sc.sm.id, sc.index)
}

func (sc *subCore) removeWarp(w *Warp) {
	if sc.warps[w.slot] != w {
		return
	}
	sc.warps[w.slot] = nil
	setBit(sc.ready, w.slot, false)
	setBit(sc.wants, w.slot, false)
	sc.resident--
	if sc.last == w {
		sc.last = nil
	}
}

// finishedBlock is a completed block's frozen completion arguments.
type finishedBlock struct {
	launchCycle uint64
	index       int
}

// SM is one streaming multiprocessor: sub-cores with warp schedulers,
// execution units, and residency accounting for blocks, warps, registers
// and shared memory.
type SM struct {
	id        int
	name      string
	cfg       config.SM
	eng       engine.Context
	class     *smClass
	wake      func() // engine activation callback
	subcores  []*subCore
	unitList  []Unit // distinct cycle-accurate units across all sub-cores
	blocks    []*residentBlock
	nextAge   uint64
	lastCycle uint64
	busyCache bool
	usedWarps int
	usedRegs  int
	usedShmem int

	// busyUnits is the busy-unit set: bit i is set exactly when
	// unitList[i].Busy(). dispatch sets a bit, Tick clears it when the unit
	// drains, and only the set bits are ticked: by the Unit contract an
	// idle unit's Tick does nothing, and only TryIssue makes it busy.
	busyUnits []uint64
	// readyOrBusy spans every sub-core's ready words and then busyUnits,
	// which lie next to each other in the SM's words: computeBusy reads
	// them in one pass.
	readyOrBusy []uint64
	// ticks and unitTicks count SM ticks and the unit Tick calls they made:
	// host work, kept out of the metrics (UnitTicks reads them).
	ticks, unitTicks uint64

	// finished holds completed blocks awaiting finishBlock, popped by
	// finishOldest; finishFn is that method, bound once so handing it to
	// Defer allocates nothing (see blockDone).
	finished mem.FIFO[finishedBlock]
	finishFn func()

	// accounted is the number of engine iterations whose scheduler-stall
	// contribution has been recorded, either by an actual Tick or by
	// settle(). The engine skips ticking an idle SM; settle() reconstructs
	// the stall counts those skipped ticks would have produced, keeping
	// sm.stall bit-identical to the tick-everything engine.
	accounted uint64

	// frontEnd runs the fetch stage: the unit set gave instruction caches.
	frontEnd bool

	onBlockDone func(sm *SM)

	// blockObs, when set, observes every finished block's (index, launch
	// cycle, end cycle). Sampled mode (internal/sim) uses it to measure
	// per-block durations for analytical extrapolation. Like onBlockDone it
	// is invoked from finishBlock, which runs in a serial engine phase
	// (inline in an exact run, at the fold in defer order in a relaxed
	// one).
	blockObs func(index int, launch, end uint64)

	issued    *metrics.Counter
	stalls    *metrics.Counter
	blocksRun *metrics.Counter

	// tracing. trOn caches tr.Enabled(ModuleLevel); stallReasons is
	// SM-local (not a metrics counter — the metrics snapshot must be
	// byte-identical with tracing on, see the regress determinism oracle)
	// and is flushed as obs events by FlushTrace at end of run.
	tr           *obs.Tracer
	trTid        int32
	trOn         bool
	stallReasons [numStallReasons]uint64
}

// Stall-reason classification for the trace's stall summary. A stalled
// sub-core is attributed to the highest-priority reason that applies:
// waiting on memory/unit results, parked at a barrier, draining exited
// warps, else structural ("other": unit conflicts, scoreboard, empty).
const (
	stallMem = iota
	stallBarrier
	stallDrain
	stallOther
	numStallReasons
)

var stallReasonNames = [numStallReasons]string{"mem", "barrier", "drain", "other"}

// classifyStall attributes the sub-core's failed issue round to a reason.
// Only called while tracing at ModuleLevel.
func (sc *subCore) classifyStall() int {
	reason := stallOther
	for _, w := range sc.warps {
		if w == nil {
			continue
		}
		if w.outstanding > 0 {
			return stallMem
		}
		if w.atBarrier && reason > stallBarrier {
			reason = stallBarrier
		} else if w.exited && !w.done && reason > stallDrain {
			reason = stallDrain
		}
	}
	return reason
}

// SetTracer installs the SM's tracer (nil for off) and registers its
// trace track. Call before the simulation runs.
func (sm *SM) SetTracer(t *obs.Tracer) {
	sm.tr = t
	sm.trOn = t.Enabled(obs.ModuleLevel)
	if sm.trOn {
		sm.trTid = t.RegisterTrack(sm.Name())
	}
}

// FlushTrace emits the SM's accumulated stall-reason totals as obs
// counter events (cat "stall", in sub-core cycles). The simulator calls it
// once after the run; cycle is the final simulated cycle.
func (sm *SM) FlushTrace(cycle uint64) {
	if !sm.trOn {
		return
	}
	sm.settle()
	for i, n := range sm.stallReasons {
		if n == 0 {
			continue
		}
		sm.tr.Emit(obs.Event{Name: stallReasonNames[i], Cat: "stall", Ph: obs.PhaseCounter,
			Ts: cycle, Tid: sm.trTid, Arg1Name: "cycles", Arg1: n})
	}
}

// smClass is what the SMs of one assembly share: the slabs their
// in-flight records and resident blocks come from, and the free lists
// those return to. Every SM of a class is touched by one goroutine, so a
// record taken by one SM may next serve another.
type smClass struct {
	inflights  *mem.Slab[inflight]
	free       *inflight
	blocks     *mem.Slab[residentBlock]
	freeBlocks *residentBlock
}

const (
	// blockChunk is how many resident-block records an SM class allocates
	// at a time.
	blockChunk = 16
	// finishedDepth is the depth an SM's queue of finished blocks starts
	// at, where an empty queue's first push would grow it: an exact run
	// holds one block there at a time, a relaxed one those its segment
	// pass finishes before the fold.
	finishedDepth = 4
)

// NewSM builds an SM with units supplied by us. onBlockDone is invoked
// whenever a resident block finishes (the Block Scheduler uses it to
// assign further blocks and detect kernel completion). It is NewSMs' batch
// of one, numbered id.
//
// NewSM validates that the unit set and configuration are satisfiable: every
// arithmetic class must resolve to a unit, the LD/ST provider must return a
// unit, and every sub-core must get at least one warp slot. Violations are
// reported as errors at assembly time rather than panics mid-simulation.
func NewSM(id int, cfg config.SM, eng engine.Context, us UnitSet, g *metrics.Gatherer, onBlockDone func(sm *SM)) (*SM, error) {
	sms, err := newSMs(id, 1, cfg, eng, us, g, onBlockDone)
	if err != nil {
		return nil, err
	}
	return sms[0], nil
}

// NewSMs builds SMs 0..n-1 as NewSM does, as one class: the SMs, their
// sub-cores, warp slots, slot-set words, unit lists, resident-block lists
// and names are carved from one slice each, and the SMs share the slabs
// their in-flight records and resident blocks grow from. Building the class
// costs the same few allocations at any n, plus each SM's defer callback.
func NewSMs(n int, cfg config.SM, eng engine.Context, us UnitSet, g *metrics.Gatherer, onBlockDone func(sm *SM)) ([]*SM, error) {
	return newSMs(0, n, cfg, eng, us, g, onBlockDone)
}

// newSMs builds the class of n SMs numbered from first.
func newSMs(first, n int, cfg config.SM, eng engine.Context, us UnitSet, g *metrics.Gatherer, onBlockDone func(sm *SM)) ([]*SM, error) {
	if cfg.SubCores <= 0 {
		return nil, fmt.Errorf("smcore: SM%d: SubCores must be positive, got %d", first, cfg.SubCores)
	}
	if cfg.MaxWarps/cfg.SubCores < 1 {
		return nil, fmt.Errorf("smcore: SM%d: MaxWarps %d gives %d sub-cores no warp slots",
			first, cfg.MaxWarps, cfg.SubCores)
	}
	if us.ALU == nil || us.LDST == nil {
		return nil, fmt.Errorf("smcore: SM%d: unit set missing ALU or LDST provider", first)
	}
	class := &smClass{
		inflights: mem.NewSlab[inflight](inflightChunk),
		blocks:    mem.NewSlab[residentBlock](blockChunk),
	}
	issued, stalls, blocksRun := g.Counter("sm.issued"), g.Counter("sm.stall"), g.Counter("sm.blocks")
	// Per SM: the sub-cores, their warp slots, the slot-set words (every
	// sub-core's ready words, then the busy-unit set over at most five
	// units per sub-core, then the wants and cand words), the unit list,
	// the resident-block list and the finished-block queue.
	subCores, warpsPerSub := cfg.SubCores, cfg.MaxWarps/cfg.SubCores
	readyWords := (warpsPerSub + 63) / 64
	maxUnits := 5 * subCores
	unitWords := (maxUnits + 63) / 64
	smWords := 3*subCores*readyWords + unitWords
	machines := make([]SM, n)
	sms := make([]*SM, n)
	subs := make([]subCore, n*subCores)
	subPtrs := make([]*subCore, n*subCores)
	slots := make([]*Warp, n*subCores*warpsPerSub)
	words := make([]uint64, n*smWords)
	unitLists := make([]Unit, n*maxUnits)
	blockLists := make([]*residentBlock, n*cfg.MaxBlocks)
	finished := make([]finishedBlock, n*finishedDepth)
	names := smNames(first, n)
	for i := range machines {
		sm := &machines[i]
		*sm = SM{
			id:          first + i,
			name:        names[i],
			cfg:         cfg,
			eng:         eng,
			class:       class,
			frontEnd:    us.ICache != nil,
			onBlockDone: onBlockDone,
			issued:      issued,
			stalls:      stalls,
			blocksRun:   blocksRun,
		}
		sm.finishFn = sm.finishOldest
		sm.subcores, subPtrs = subPtrs[:subCores:subCores], subPtrs[subCores:]
		sm.unitList, unitLists = unitLists[:0:maxUnits], unitLists[maxUnits:]
		sm.blocks, blockLists = blockLists[:0:cfg.MaxBlocks], blockLists[cfg.MaxBlocks:]
		sm.finished, finished = mem.FIFOOver(finished[:finishedDepth:finishedDepth]), finished[finishedDepth:]
		w := words[:smWords:smWords]
		words = words[smWords:]
		ready := subCores * readyWords
		sm.readyOrBusy = w[: ready+unitWords : ready+unitWords]
		sm.busyUnits = w[ready : ready+unitWords : ready+unitWords]
		wants, cand := w[ready+unitWords:], w[ready+unitWords+ready:]
		for s := range sm.subcores {
			sc := &subs[0]
			subs = subs[1:]
			sc.sm, sc.index = sm, s
			sc.warps, slots = slots[:warpsPerSub:warpsPerSub], slots[warpsPerSub:]
			lo, hi := s*readyWords, (s+1)*readyWords
			sc.ready, sc.wants, sc.cand = w[lo:hi:hi], wants[lo:hi:hi], cand[lo:hi:hi]
			sm.subcores[s] = sc
			if err := sm.attachUnits(sc, us); err != nil {
				return nil, err
			}
		}
		sms[i] = sm
	}
	return sms, nil
}

// attachUnits asks us for sub-core sc's units and enters the cycle-accurate
// ones into the SM's unit list.
func (sm *SM) attachUnits(sc *subCore, us UnitSet) error {
	// addUnit returns u's index in the tick list, or -1 for a unit that
	// is not in it. Only cycle-accurate units enter the list; analytical
	// units interact purely through scheduled events — the mechanism
	// behind the hybrid configurations' speed. A unit shared by several
	// sub-cores has one index.
	addUnit := func(u Unit) int {
		if u == nil || u.Kind() != engine.CycleAccurate {
			return -1
		}
		for i, have := range sm.unitList {
			if have == u {
				return i
			}
		}
		sm.unitList = append(sm.unitList, u)
		return len(sm.unitList) - 1
	}
	id, s := sm.id, sc.index
	for _, class := range [...]trace.OpClass{trace.OpInt, trace.OpSP, trace.OpDP, trace.OpSFU} {
		u := us.ALU(id, s, class)
		if u == nil {
			return fmt.Errorf("smcore: SM%d sub-core %d: no ALU unit for class %v", id, s, class)
		}
		sc.units[class] = u
		sc.unitIdx[class] = addUnit(u)
	}
	sc.ldst = us.LDST(id, s)
	if sc.ldst == nil {
		return fmt.Errorf("smcore: SM%d sub-core %d: no LD/ST unit", id, s)
	}
	sc.ldstIdx = addUnit(sc.ldst)
	if us.ICache != nil {
		sc.icache = us.ICache(id, s)
	}
	if us.Scheduler != nil {
		sc.setPicker(us.Scheduler(id, s))
	}
	return nil
}

// smNames returns the report names of the n SMs numbered from first, as
// substrings of one string.
func smNames(first, n int) []string {
	var b strings.Builder
	var num [20]byte
	b.Grow(n * (len("SM") + len(strconv.AppendInt(num[:0], int64(first+n-1), 10))))
	for i := 0; i < n; i++ {
		b.WriteString("SM")
		b.Write(strconv.AppendInt(num[:0], int64(first+i), 10))
	}
	all := b.String()
	names := make([]string, n)
	for i := range names {
		k := len("SM") + len(strconv.AppendInt(num[:0], int64(first+i), 10))
		names[i], all = all[:k], all[k:]
	}
	return names
}

// ID returns the SM's index.
func (sm *SM) ID() int { return sm.id }

// Name implements engine.Module.
func (sm *SM) Name() string { return sm.name }

// Kind implements engine.Module: the Warp Scheduler & Dispatch module is
// cycle-accurate in every Swift-Sim assembly in the paper.
func (sm *SM) Kind() engine.ModelKind { return engine.CycleAccurate }

// SetWake implements engine.Ticker: the engine installs its activation
// callback so the SM can leave the per-cycle tick set while idle and be
// re-activated by completion events, block assignment, and barrier
// releases.
func (sm *SM) SetWake(wake func()) { sm.wake = wake }

// settle records the scheduler stalls the skipped ticks since the last
// accounting point would have produced. While the SM is out of the active
// set no warp is issuable (wake-ups arrive only through events, which
// re-activate it), so the tick-everything engine would have counted one
// stall per sub-core per visited cycle whenever blocks were resident. It
// must be called before anything changes len(sm.blocks) and at the start
// of each Tick.
func (sm *SM) settle() {
	now := sm.eng.TickedCycles()
	if now <= sm.accounted {
		return
	}
	if len(sm.blocks) > 0 {
		gap := now - sm.accounted
		sm.stalls.Add(uint64(len(sm.subcores)) * gap)
		if sm.trOn {
			// Attribute the reconstructed stalls the same way the ticks
			// would have: each sub-core's current blocked state held for
			// the whole gap (nothing changes while the SM is out of the
			// active set).
			for _, sc := range sm.subcores {
				sm.stallReasons[sc.classifyStall()] += gap
			}
		}
	}
	sm.accounted = now
}

// Busy implements engine.Ticker: the SM needs per-cycle evaluation while
// any warp could issue or any cycle-accurate unit holds in-flight work.
// When every resident warp is blocked on outstanding results, the engine
// may fast-forward to the next completion event. The value is computed at
// the end of each Tick (warp wake-ups between ticks arrive only through
// engine events, so it stays valid until the next tick).
func (sm *SM) Busy() bool { return sm.busyCache }

func (sm *SM) computeBusy() bool {
	if anyBit(sm.readyOrBusy) {
		return true
	}
	if !sm.frontEnd {
		return false
	}
	for _, sc := range sm.subcores {
		if sc.icache != nil && sc.icache.Busy(sm.lastCycle+1) {
			return true
		}
		if sc.fetchPending() {
			return true
		}
	}
	return false
}

// Tick implements engine.Ticker: advance unit pipelines, then run one
// scheduling round per sub-core scheduler. A built-in policy has nothing to
// pick from an empty ready set, so such a round is skipped, keeping the
// one effect its failed issue had: the round count, which a Picker's tried
// predicate reads and a checkpoint saves. The test is made round by round,
// so a barrier that an earlier sub-core's dispatch released this tick
// still issues. A Picker is always asked: it may keep state.
func (sm *SM) Tick(cycle uint64) {
	sm.settle()
	sm.lastCycle = cycle
	sm.ticks++
	sm.tickUnits(cycle)
	if sm.frontEnd {
		for _, sc := range sm.subcores {
			sc.fetch(cycle)
		}
	}
	for _, sc := range sm.subcores {
		for s := 0; s < sm.cfg.SchedulersPerSubCore; s++ {
			if sc.picker == nil && !sc.anyIssuable() {
				sc.epoch++
			} else if sc.issue(cycle) {
				continue
			}
			if len(sm.blocks) > 0 {
				sm.stalls.Inc()
				if sm.trOn {
					sm.stallReasons[sc.classifyStall()]++
				}
			}
			break
		}
	}
	sm.busyCache = sm.computeBusy()
	// This tick covers the engine iteration in progress (the engine counts
	// it after the tick phase completes).
	sm.accounted = sm.eng.TickedCycles() + 1
	if readyCheck != nil {
		readyCheck(sm, true)
	}
}

// tickUnits ticks the busy units in unitList order and drops from the set
// each one its tick drained. Nothing a unit's tick calls issues, so no bit
// is set during the walk.
func (sm *SM) tickUnits(cycle uint64) {
	for wi, word := range sm.busyUnits {
		for ; word != 0; word &= word - 1 {
			i := wi<<6 + bits.TrailingZeros64(word)
			u := sm.unitList[i]
			u.Tick(cycle)
			sm.unitTicks++
			if !u.Busy() {
				setBit(sm.busyUnits, i, false)
			}
		}
	}
}

// UnitTicks returns the SM's Tick calls and the unit Tick calls they made
// so far: the host work the busy-unit set keeps to the units holding
// instructions. Neither is a simulated count.
func (sm *SM) UnitTicks() (smTicks, unitTicks uint64) { return sm.ticks, sm.unitTicks }

// readyCheck, when set, is called after every SM.Tick (tick true) and every
// completion to compare each sub-core's ready set with a fresh issuable()
// scan of its slots, and the busy-unit set with a fresh Busy() scan of the
// units. A completion can run inside a unit's Tick, before tickUnits has
// cleared the bit of a unit it drained, so only a tick's check holds the set
// to equality. Only tests set it (export_test.go holds the scan); the
// product build pays one nil test at each of the two call sites.
var readyCheck func(sm *SM, tick bool)

// blockCost returns the warp count, register and shared-memory footprint
// of one block of k.
func blockCost(cfg config.SM, k *trace.Kernel) (warps, regs, shmem int) {
	warps = k.WarpsPerBlock()
	regs = k.RegsPerThread * k.Block.Count()
	shmem = k.SharedMemPerBlock
	return
}

// CanAccept reports whether the SM has residency resources for one more
// block of k.
func (sm *SM) CanAccept(k *trace.Kernel) bool {
	warps, regs, shmem := blockCost(sm.cfg, k)
	if len(sm.blocks) >= sm.cfg.MaxBlocks {
		return false
	}
	if sm.usedWarps+warps > sm.cfg.MaxWarps {
		return false
	}
	if sm.usedRegs+regs > sm.cfg.Registers {
		return false
	}
	if sm.usedShmem+shmem > sm.cfg.SharedMemBytes {
		return false
	}
	// Every sub-core must have free warp slots for its share: AssignBlock
	// deals warp i to sub-core i mod SubCores, so the first warps mod
	// SubCores sub-cores take one more than the rest.
	n := sm.cfg.SubCores
	for s, sc := range sm.subcores {
		need := warps / n
		if s < warps%n {
			need++
		}
		if len(sc.warps)-sc.resident < need {
			return false
		}
	}
	return true
}

// AssignBlock makes block index of k resident, distributing its warps
// round-robin over the sub-cores. The caller must have checked CanAccept.
// An error means the SM's residency accounting disagreed with its warp-slot
// state; the block is unwound and the SM left usable.
func (sm *SM) AssignBlock(k *trace.Kernel, index int) error {
	sm.settle() // stall accounting up to here used the old resident set
	warps, regs, shmem := blockCost(sm.cfg, k)
	rb := sm.class.takeBlock()
	*rb = residentBlock{sm: sm, index: index, warps: make([]Warp, warps), liveWarps: warps, regs: regs, shmem: shmem}
	bt := &k.Blocks[index]
	for wi := range rb.warps {
		sm.nextAge++
		w := &rb.warps[wi]
		*w = Warp{
			ID:    sm.id*4096 + index*64 + wi,
			Age:   sm.nextAge,
			block: rb,
			insts: bt.Warps[wi],
		}
		if !sm.frontEnd {
			w.ibuf = -1 // instructions always available
		}
		if err := sm.subcores[wi%sm.cfg.SubCores].addWarp(w); err != nil {
			// Unwind the partially placed block.
			for pwi := range rb.warps[:wi] {
				sm.subcores[pwi%sm.cfg.SubCores].removeWarp(&rb.warps[pwi])
			}
			sm.class.putBlock(rb)
			return fmt.Errorf("smcore: SM%d block %d of kernel %s: %w", sm.id, index, k.Name, err)
		}
	}
	sm.blocks = append(sm.blocks, rb)
	sm.usedWarps += warps
	sm.usedRegs += regs
	sm.usedShmem += shmem
	sm.blocksRun.Inc()
	if sm.trOn || sm.blockObs != nil {
		rb.launchCycle = sm.eng.Cycle()
	}
	sm.busyCache = true // newly resident warps have work
	sm.wake()
	return nil
}

// takeBlock returns a resident-block record from the class's free list or
// slab.
func (c *smClass) takeBlock() *residentBlock {
	if rb := c.freeBlocks; rb != nil {
		c.freeBlocks = rb.next
		return rb
	}
	return c.blocks.One()
}

// putBlock returns a record whose block is gone. Its warps stay where they
// are: a Picker may still hold one.
func (c *smClass) putBlock(rb *residentBlock) {
	*rb = residentBlock{next: c.freeBlocks}
	c.freeBlocks = rb
}

// blockDone releases a finished block's resources.
func (sm *SM) blockDone(rb *residentBlock) {
	sm.settle() // stall accounting up to here included rb
	for i, b := range sm.blocks {
		if b == rb {
			sm.blocks = append(sm.blocks[:i], sm.blocks[i+1:]...)
			break
		}
	}
	for wi := range rb.warps {
		sm.subcores[wi%sm.cfg.SubCores].removeWarp(&rb.warps[wi])
	}
	sm.usedWarps -= len(rb.warps)
	sm.usedRegs -= rb.regs
	sm.usedShmem -= rb.shmem
	launchCycle, index := rb.launchCycle, rb.index
	sm.class.putBlock(rb)
	// The block-completion notification (and its trace span) escapes the
	// SM: onBlockDone wakes the shared Block Scheduler. During a relaxed
	// run's segment pass that effect leaves the segment, so it goes through
	// the engine context's Defer — applied at the fold in the order issued,
	// inline otherwise. The block's frozen values
	// (launch cycle, index) ride in a per-SM FIFO that the one preallocated
	// callback pops, so the per-block path allocates in neither case: an
	// SM's defers run in the order it issued them.
	sm.finished.Push(finishedBlock{launchCycle, index})
	sm.eng.Defer(sm.finishFn)
}

// finishOldest pops the oldest completed block and finishes it.
func (sm *SM) finishOldest() {
	f := sm.finished.Pop()
	sm.finishBlock(f.launchCycle, f.index)
}

// finishBlock emits the block's trace span and notifies the Block
// Scheduler. It runs through the engine context's Defer from blockDone: at
// the engine's fold when the SM's pass was staged, inline otherwise.
func (sm *SM) finishBlock(launchCycle uint64, index int) {
	if sm.trOn {
		sm.tr.Emit(obs.Event{Name: "block", Cat: "sm", Ph: obs.PhaseSpan,
			Ts: launchCycle, Dur: sm.eng.Cycle() - launchCycle, Tid: sm.trTid,
			Arg1Name: "index", Arg1: uint64(index)})
	}
	if sm.blockObs != nil {
		sm.blockObs(index, launchCycle, sm.eng.Cycle())
	}
	if sm.onBlockDone != nil {
		sm.onBlockDone(sm)
	}
}

// SetBlockObserver installs fn to be called for every block the SM
// finishes, with the block's kernel-local index and its launch/end cycles.
// nil disables observation. Call before the simulation runs; installing an
// observer makes AssignBlock record launch cycles even without tracing.
func (sm *SM) SetBlockObserver(fn func(index int, launch, end uint64)) {
	sm.blockObs = fn
}

// ResidentBlocks returns the number of blocks currently resident (for
// tests and occupancy metrics).
func (sm *SM) ResidentBlocks() int { return len(sm.blocks) }

// BlocksPerSM returns how many blocks of k fit concurrently on one SM
// under cfg's residency limits (the classic occupancy calculation). It
// returns at least 1 for any kernel that fits at all, and 0 for kernels
// that can never be scheduled.
func BlocksPerSM(cfg config.SM, k *trace.Kernel) int {
	warps, regs, shmem := blockCost(cfg, k)
	n := cfg.MaxBlocks
	if warps > 0 {
		if byWarps := cfg.MaxWarps / warps; byWarps < n {
			n = byWarps
		}
	}
	if regs > 0 {
		if byRegs := cfg.Registers / regs; byRegs < n {
			n = byRegs
		}
	}
	if shmem > 0 {
		if byShmem := cfg.SharedMemBytes / shmem; byShmem < n {
			n = byShmem
		}
	}
	if n < 0 {
		n = 0
	}
	return n
}

// ValidateKernel checks that at least one block of k can ever become
// resident on an SM under cfg. Unsatisfiable kernels previously surfaced
// as engine deadlocks (or, with corrupted accounting, warp-slot panics)
// deep inside a run; validating at assembly time turns them into a clear
// per-job configuration error.
func ValidateKernel(cfg config.SM, k *trace.Kernel) error {
	if BlocksPerSM(cfg, k) >= 1 {
		return nil
	}
	warps, regs, shmem := blockCost(cfg, k)
	return fmt.Errorf(
		"smcore: kernel %s can never be scheduled: one block needs %d warps, %d registers, %dB shared memory; an SM offers %d warps, %d registers, %dB",
		k.Name, warps, regs, shmem, cfg.MaxWarps, cfg.Registers, cfg.SharedMemBytes)
}
