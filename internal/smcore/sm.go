package smcore

import (
	"fmt"
	"math/bits"

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
// Providers may return shared instances (e.g. one DP pipeline per two
// sub-cores, Table II's "DP:0.5x").
type UnitSet struct {
	// ALU returns the unit executing the given arithmetic class
	// (OpInt, OpSP, OpDP, OpSFU) for sub-core sub of SM smID.
	ALU func(smID, sub int, class trace.OpClass) Unit
	// LDST returns the load/store unit for sub-core sub of SM smID.
	LDST func(smID, sub int) Unit
	// ICache optionally returns a per-sub-core instruction cache; nil
	// runs without one (the hybrid configurations simplify it away).
	ICache func(smID, sub int) *ICache
	// ModelFrontEnd enables the detailed fetch stage: instructions are
	// fetched through the ICache into per-warp instruction buffers every
	// cycle before they become eligible for issue. The hybrid
	// configurations leave it off (another simplified module).
	ModelFrontEnd bool
	// Scheduler optionally installs a custom warp-scheduling policy per
	// sub-core, overriding the configuration's built-in policy — the
	// paper's new-warp-scheduler exploration hook. nil keeps the
	// configured GTO/LRR/oldest-first policy.
	Scheduler func(smID, sub int) Picker
}

// residentBlock tracks one thread block resident on an SM.
type residentBlock struct {
	sm        *SM
	index     int // block index within the kernel
	warps     []*Warp
	liveWarps int
	atBarrier int
	regs      int
	shmem     int
	// launchCycle is the assignment cycle, recorded only while tracing so
	// blockDone can emit the block's residency span.
	launchCycle uint64
}

func (b *residentBlock) barrierArrive() {
	b.atBarrier++
	b.maybeRelease()
}

func (b *residentBlock) maybeRelease() {
	if b.liveWarps > 0 && b.atBarrier >= b.liveWarps {
		b.atBarrier = 0
		for _, w := range b.warps {
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
	// and fetch. A new Warp field that issuable() reads needs a refresh at
	// every write.
	ready []uint64
	// cand is issueOldest's scratch copy of ready, minus the warps whose
	// dispatch the round has seen refused.
	cand []uint64
	// resident counts the occupied warp slots.
	resident int

	units  [4]Unit // indexed by trace.OpInt..trace.OpSFU
	ldst   Unit
	icache *ICache // nil when the configuration simplifies it away
	picker Picker  // nil = built-in policy; installed by setPicker
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
func (sc *subCore) fetch(cycle uint64) {
	n := len(sc.warps)
	fetched := 0
	for i := 1; i <= n && fetched < fetchPerCycle; i++ {
		idx := (sc.fetchCursor + i) % n
		w := sc.warps[idx]
		if w == nil || !w.wantsFetch(ibufDepth) {
			continue
		}
		pc := w.insts[w.pc+w.ibuf].PC
		if sc.icache != nil && !sc.icache.Ready(pc, cycle) {
			continue
		}
		w.ibuf++
		if w.ibuf == 1 {
			sc.refresh(w)
		}
		fetched++
		sc.fetchCursor = idx
	}
}

// fetchPending reports whether some warp still needs front-end work.
func (sc *subCore) fetchPending() bool {
	for _, w := range sc.warps {
		if w != nil && w.wantsFetch(ibufDepth) {
			return true
		}
	}
	return false
}

// refresh brings w's bit of the ready set in line with w.issuable(), which
// stays the one definition of "issuable".
func (sc *subCore) refresh(w *Warp) { sc.setReady(w.slot, w.issuable()) }

func (sc *subCore) setReady(slot int, on bool) {
	bit := uint64(1) << (slot & 63)
	if on {
		sc.ready[slot>>6] |= bit
	} else {
		sc.ready[slot>>6] &^= bit
	}
}

// isReady reports whether the warp in slot is issuable.
func (sc *subCore) isReady(slot int) bool {
	return sc.ready[slot>>6]&(1<<(slot&63)) != 0
}

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
		var u Unit
		if in.Op.IsMem() {
			u = sc.ldst
		} else {
			u = sc.units[in.Op]
		}
		f := sc.sm.takeInflight(w, in.Dst)
		if !u.TryIssue(cycle, in, f.done) {
			sc.sm.free = append(sc.sm.free, f)
			return false
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
// handing it to Unit.TryIssue allocates nothing. Records are recycled
// through SM.free.
type inflight struct {
	sm   *SM
	w    *Warp
	dst  trace.Reg
	done func()
}

// takeInflight returns a record for w's instruction writing dst.
func (sm *SM) takeInflight(w *Warp, dst trace.Reg) *inflight {
	var f *inflight
	if n := len(sm.free); n > 0 {
		f = sm.free[n-1]
		sm.free = sm.free[:n-1]
	} else {
		f = &inflight{sm: sm}
		f.done = f.complete
	}
	f.w, f.dst = w, dst
	return f
}

// complete is the unit's writeback acknowledgment. The record returns to
// the free list first: nothing below issues, and the unit that called it
// is done with it.
func (f *inflight) complete() {
	sm, w, dst := f.sm, f.w, f.dst
	f.w = nil
	sm.free = append(sm.free, f)
	// A completing instruction may make the warp (or a sibling past a
	// barrier) issuable: re-activate the SM so the next cycle ticks it.
	if sm.wake != nil {
		sm.wake()
	}
	w.sb.clear(dst)
	w.sc.refresh(w)
	w.outstanding--
	w.maybeComplete()
	if readyCheck != nil {
		readyCheck(sm)
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
func (sc *subCore) anyIssuable() bool {
	for _, word := range sc.ready {
		if word != 0 {
			return true
		}
	}
	return false
}

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
	sc.setReady(w.slot, false)
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
	cfg       config.SM
	eng       engine.Context
	wake      func() // engine activation callback (nil when standalone)
	subcores  []*subCore
	unitList  []Unit // distinct units across all sub-cores
	blocks    []*residentBlock
	nextAge   uint64
	lastCycle uint64
	busyCache bool
	usedWarps int
	usedRegs  int
	usedShmem int

	// finished holds completed blocks awaiting finishBlock, popped by
	// finishOldest; finishFn is that method, bound once so handing it to
	// Defer allocates nothing (see blockDone).
	finished mem.FIFO[finishedBlock]
	finishFn func()

	// free holds recycled in-flight records. It is touched where the SM's
	// other state is: dispatch takes from it during the SM's tick and
	// completions return to it from engine events or from a cycle-accurate
	// unit's Tick inside the SM's own.
	free []*inflight

	// accounted is the number of engine iterations whose scheduler-stall
	// contribution has been recorded, either by an actual Tick or by
	// settle(). The engine skips ticking an idle SM; settle() reconstructs
	// the stall counts those skipped ticks would have produced, keeping
	// sm.stall bit-identical to the tick-everything engine.
	accounted uint64

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

// NewSM builds an SM with units supplied by us. onBlockDone is invoked
// whenever a resident block finishes (the Block Scheduler uses it to
// assign further blocks and detect kernel completion).
//
// NewSM validates that the unit set and configuration are satisfiable: every
// arithmetic class must resolve to a unit, the LD/ST provider must return a
// unit, and every sub-core must get at least one warp slot. Violations are
// reported as errors at assembly time rather than panics mid-simulation.
func NewSM(id int, cfg config.SM, eng engine.Context, us UnitSet, g *metrics.Gatherer, onBlockDone func(sm *SM)) (*SM, error) {
	if cfg.SubCores <= 0 {
		return nil, fmt.Errorf("smcore: SM%d: SubCores must be positive, got %d", id, cfg.SubCores)
	}
	if cfg.MaxWarps/cfg.SubCores < 1 {
		return nil, fmt.Errorf("smcore: SM%d: MaxWarps %d gives %d sub-cores no warp slots",
			id, cfg.MaxWarps, cfg.SubCores)
	}
	if us.ALU == nil || us.LDST == nil {
		return nil, fmt.Errorf("smcore: SM%d: unit set missing ALU or LDST provider", id)
	}
	sm := &SM{
		id:          id,
		cfg:         cfg,
		eng:         eng,
		frontEnd:    us.ModelFrontEnd,
		onBlockDone: onBlockDone,
		issued:      g.Counter("sm.issued"),
		stalls:      g.Counter("sm.stall"),
		blocksRun:   g.Counter("sm.blocks"),
	}
	sm.finishFn = sm.finishOldest
	warpsPerSub := cfg.MaxWarps / cfg.SubCores
	addUnit := func(u Unit) {
		// Only cycle-accurate units enter the per-cycle tick list;
		// analytical units interact purely through scheduled events —
		// the mechanism behind the hybrid configurations' speed.
		if u == nil || u.Kind() != engine.CycleAccurate {
			return
		}
		for _, have := range sm.unitList {
			if have == u {
				return
			}
		}
		sm.unitList = append(sm.unitList, u)
	}
	// One slab each for the sub-cores, their warp slots and their ready-set
	// words (ready and cand), sliced per sub-core: an SM is built per run.
	readyWords := (warpsPerSub + 63) / 64
	subs := make([]subCore, cfg.SubCores)
	slots := make([]*Warp, cfg.SubCores*warpsPerSub)
	words := make([]uint64, 2*cfg.SubCores*readyWords)
	sm.subcores = make([]*subCore, cfg.SubCores)
	for s := range subs {
		sc := &subs[s]
		sc.sm, sc.index = sm, s
		sc.warps, slots = slots[:warpsPerSub:warpsPerSub], slots[warpsPerSub:]
		sc.ready, words = words[:readyWords:readyWords], words[readyWords:]
		sc.cand, words = words[:readyWords:readyWords], words[readyWords:]
		for _, class := range []trace.OpClass{trace.OpInt, trace.OpSP, trace.OpDP, trace.OpSFU} {
			u := us.ALU(id, s, class)
			if u == nil {
				return nil, fmt.Errorf("smcore: SM%d sub-core %d: no ALU unit for class %v", id, s, class)
			}
			sc.units[class] = u
			addUnit(u)
		}
		sc.ldst = us.LDST(id, s)
		if sc.ldst == nil {
			return nil, fmt.Errorf("smcore: SM%d sub-core %d: no LD/ST unit", id, s)
		}
		addUnit(sc.ldst)
		if us.ICache != nil {
			sc.icache = us.ICache(id, s)
		}
		if us.Scheduler != nil {
			sc.setPicker(us.Scheduler(id, s))
		}
		sm.subcores[s] = sc
	}
	return sm, nil
}

// ID returns the SM's index.
func (sm *SM) ID() int { return sm.id }

// Name implements engine.Module.
func (sm *SM) Name() string { return fmt.Sprintf("SM%d", sm.id) }

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
	if sm.eng == nil {
		return
	}
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
	for _, sc := range sm.subcores {
		if sc.anyIssuable() {
			return true
		}
	}
	for _, u := range sm.unitList {
		if u.Busy() {
			return true
		}
	}
	for _, sc := range sm.subcores {
		if sc.icache != nil && sc.icache.Busy(sm.lastCycle+1) {
			return true
		}
		if sm.frontEnd && sc.fetchPending() {
			return true
		}
	}
	return false
}

// Tick implements engine.Ticker: advance unit pipelines, then run one
// scheduling round per sub-core scheduler.
func (sm *SM) Tick(cycle uint64) {
	sm.settle()
	sm.lastCycle = cycle
	for _, u := range sm.unitList {
		u.Tick(cycle)
	}
	if sm.frontEnd {
		for _, sc := range sm.subcores {
			sc.fetch(cycle)
		}
	}
	for _, sc := range sm.subcores {
		for s := 0; s < sm.cfg.SchedulersPerSubCore; s++ {
			if !sc.issue(cycle) {
				if len(sm.blocks) > 0 {
					sm.stalls.Inc()
					if sm.trOn {
						sm.stallReasons[sc.classifyStall()]++
					}
				}
				break
			}
		}
	}
	sm.busyCache = sm.computeBusy()
	if sm.eng != nil {
		// This tick covers the engine iteration in progress (the engine
		// counts it after the tick phase completes).
		sm.accounted = sm.eng.TickedCycles() + 1
	}
	if readyCheck != nil {
		readyCheck(sm)
	}
}

// readyCheck, when set, is called after every SM.Tick and every completion
// to compare each sub-core's ready set with a fresh issuable() scan of its
// slots. Only tests set it (export_test.go holds the scan); the product
// build pays one nil test at each of the two call sites.
var readyCheck func(sm *SM)

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
	rb := &residentBlock{sm: sm, index: index, liveWarps: warps, regs: regs, shmem: shmem}
	bt := &k.Blocks[index]
	for wi := 0; wi < warps; wi++ {
		sm.nextAge++
		w := &Warp{
			ID:    sm.id*4096 + index*64 + wi,
			Age:   sm.nextAge,
			block: rb,
			insts: bt.Warps[wi],
		}
		if !sm.frontEnd {
			w.ibuf = -1 // instructions always available
		}
		rb.warps = append(rb.warps, w)
		if err := sm.subcores[wi%sm.cfg.SubCores].addWarp(w); err != nil {
			// Unwind the partially placed block.
			for pwi, pw := range rb.warps[:len(rb.warps)-1] {
				sm.subcores[pwi%sm.cfg.SubCores].removeWarp(pw)
			}
			return fmt.Errorf("smcore: SM%d block %d of kernel %s: %w", sm.id, index, k.Name, err)
		}
	}
	sm.blocks = append(sm.blocks, rb)
	sm.usedWarps += warps
	sm.usedRegs += regs
	sm.usedShmem += shmem
	sm.blocksRun.Inc()
	if (sm.trOn || sm.blockObs != nil) && sm.eng != nil {
		rb.launchCycle = sm.eng.Cycle()
	}
	sm.busyCache = true // newly resident warps have work
	if sm.wake != nil {
		sm.wake()
	}
	return nil
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
	for wi, w := range rb.warps {
		sm.subcores[wi%sm.cfg.SubCores].removeWarp(w)
	}
	sm.usedWarps -= rb.liveWarpsTotal()
	sm.usedRegs -= rb.regs
	sm.usedShmem -= rb.shmem
	// The block-completion notification (and its trace span) escapes the
	// SM: onBlockDone wakes the shared Block Scheduler. During a relaxed
	// run's segment pass that effect leaves the segment, so it goes through
	// the engine context's Defer — applied at the fold in the order issued,
	// inline otherwise. The block's frozen values
	// (launch cycle, index) ride in a per-SM FIFO that the one preallocated
	// callback pops, so the per-block path allocates in neither case: an
	// SM's defers run in the order it issued them.
	if sm.eng == nil {
		sm.finishBlock(rb.launchCycle, rb.index)
		return
	}
	sm.finished.Push(finishedBlock{rb.launchCycle, rb.index})
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
	if sm.trOn && sm.eng != nil {
		sm.tr.Emit(obs.Event{Name: "block", Cat: "sm", Ph: obs.PhaseSpan,
			Ts: launchCycle, Dur: sm.eng.Cycle() - launchCycle, Tid: sm.trTid,
			Arg1Name: "index", Arg1: uint64(index)})
	}
	if sm.blockObs != nil && sm.eng != nil {
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

func (b *residentBlock) liveWarpsTotal() int { return len(b.warps) }

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
