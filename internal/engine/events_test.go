package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"swiftsim/internal/snap"
)

// The event store against a reference heap.
//
// refHeap is the (cycle, seq) binary min-heap that was the engine's whole
// event queue before the timing wheel, kept here as the oracle: the order it
// pops in is the order the store must fire in. heapEngine is the exact run
// loop over it (fire due events, tick, stop or step or fast-forward), so a
// seeded scenario can be driven through it and through a real Engine and
// the two histories compared event for event and counter for counter.

type refEvent struct {
	cycle uint64
	seq   uint64
	fn    func()
}

type refHeap []refEvent

func (q refHeap) less(i, j int) bool {
	if q[i].cycle != q[j].cycle {
		return q[i].cycle < q[j].cycle
	}
	return q[i].seq < q[j].seq
}

func (q *refHeap) push(ev refEvent) {
	*q = append(*q, ev)
	for i := len(*q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		(*q)[i], (*q)[parent] = (*q)[parent], (*q)[i]
		i = parent
	}
}

func (q *refHeap) pop() refEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = refEvent{}
	*q = h[:n]
	for i := 0; ; {
		small := 2*i + 1
		if small >= n {
			break
		}
		if r := small + 1; r < n && q.less(r, small) {
			small = r
		}
		if !q.less(small, i) {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// scheduler is what a scenario needs of an engine; *Engine, a segment
// Context and heapEngine all provide it.
type scheduler interface {
	Cycle() uint64
	Schedule(delay uint64, fn func())
}

// heapEngine is the reference: the pre-wheel run loop, ticking every ticker
// at every visited cycle. A scenario ticker with no work does nothing in
// Tick and is woken whenever it is given work, so this visits and ticks
// exactly what the real engine's active set does.
type heapEngine struct {
	cycle, seq             uint64
	q                      refHeap
	tickers                []*storeTicker
	ticked, skipped, fired uint64
}

func (h *heapEngine) Cycle() uint64 { return h.cycle }

func (h *heapEngine) Schedule(delay uint64, fn func()) {
	h.seq++
	h.q.push(refEvent{cycle: h.cycle + delay, seq: h.seq, fn: fn})
}

func (h *heapEngine) run(done func() bool) error {
	if done() {
		return nil
	}
	for {
		for len(h.q) > 0 && h.q[0].cycle <= h.cycle {
			ev := h.q.pop()
			h.fired++
			ev.fn()
		}
		busy := false
		for _, t := range h.tickers {
			t.Tick(h.cycle)
			busy = busy || t.Busy()
		}
		h.ticked++
		switch {
		case done():
			return nil
		case busy:
			h.cycle++
		case len(h.q) == 0:
			return ErrDeadlock
		case h.q[0].cycle <= h.cycle:
			h.cycle++
		default:
			h.skipped += h.q[0].cycle - h.cycle - 1
			h.cycle = h.q[0].cycle
		}
	}
}

// storeDelays are the delays a scenario draws from: the store's edges
// (around the horizon, where near turns into far), the documented delay 0,
// short ones for busy stretches and a long one that forces a fast-forward
// over many wheel turns. Written against the constants, so the scenario
// follows the wheel if it is ever resized.
var storeDelays = []uint64{0, 0, 1, 1, 2, 3, 7, 40, horizon - 2, horizon - 1, horizon, horizon + 1, 10 * horizon}

type firedRec struct {
	id    int
	cycle uint64
}

// storeRig is one seeded scenario bound to one engine. Every random draw
// happens inside a callback, so two rigs with the same seed stay in step
// for exactly as long as their engines fire in the same order.
type storeRig struct {
	rng    *rand.Rand
	s      scheduler
	tk     *storeTicker
	budget int // events still to create
	nextID int
	live   int // scheduled, not yet fired
	log    []firedRec

	// hooks for the order oracle of the relaxed run; nil otherwise.
	onSchedule func(id int, delay uint64)
	onFire     func(id int)
}

func (r *storeRig) delay() uint64 { return storeDelays[r.rng.Intn(len(storeDelays))] }

// spawn schedules one scenario event after delay.
func (r *storeRig) spawn(delay uint64) {
	if r.budget == 0 {
		return
	}
	r.budget--
	id := r.nextID
	r.nextID++
	r.live++
	if r.onSchedule != nil {
		r.onSchedule(id, delay)
	}
	r.s.Schedule(delay, func() { r.fire(id) })
}

// fire is a scenario event's body: it logs itself, schedules up to three
// further events (delay 0 from the event phase included) and sometimes
// hands the ticker a stretch of per-cycle work.
func (r *storeRig) fire(id int) {
	r.live--
	r.log = append(r.log, firedRec{id, r.s.Cycle()})
	if r.onFire != nil {
		r.onFire(id)
	}
	for n := r.rng.Intn(4); n > 0; n-- {
		r.spawn(r.delay())
	}
	if r.rng.Intn(8) == 0 {
		r.tk.give(1 + r.rng.Intn(30))
	}
}

// storeTicker is the scenario's cycle-accurate module: while it has work it
// burns one unit a cycle and schedules from its Tick, delay 0 included,
// which is what leaves an event due at a cycle whose event phase is over.
type storeTicker struct {
	rig    *storeRig
	wake   func()
	work   int
	inTick bool
}

func (t *storeTicker) Name() string        { return "store-ticker" }
func (t *storeTicker) Kind() ModelKind     { return CycleAccurate }
func (t *storeTicker) Busy() bool          { return t.work > 0 }
func (t *storeTicker) SetWake(wake func()) { t.wake = wake }

func (t *storeTicker) give(n int) {
	t.work += n
	if t.wake != nil {
		t.wake()
	}
}

func (t *storeTicker) Tick(uint64) {
	if t.work == 0 {
		return
	}
	t.work--
	t.inTick = true
	if t.rig.rng.Intn(3) == 0 {
		t.rig.spawn(t.rig.delay())
	}
	t.inTick = false
}

func newStoreRig(seed int64, s scheduler, budget int) *storeRig {
	r := &storeRig{rng: rand.New(rand.NewSource(seed)), s: s, budget: budget}
	r.tk = &storeTicker{rig: r}
	return r
}

// seedEvents schedules the scenario's first events from outside the run
// loop, one at every delay.
func (r *storeRig) seedEvents() {
	for _, d := range storeDelays {
		r.spawn(d)
	}
}

// TestEventStoreMatchesReferenceHeap drives seeded scenarios through the
// engine and through the reference heap engine: delays on both sides of the
// horizon, events that schedule events, delay 0 from the event phase and
// from a ticker's Tick, busy stretches and fast-forwards, and a first run
// that stops with events pending. The two must fire the same events at the
// same cycles in the same order and end on the same counters, and while
// events are pending the engine must refuse to call itself quiescent.
func TestEventStoreMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		const budget = 3000
		e := New()
		got := newStoreRig(seed, e, budget)
		e.Register(got.tk)

		h := &heapEngine{}
		want := newStoreRig(seed, h, budget)
		h.tickers = []*storeTicker{want.tk}

		got.seedEvents()
		want.seedEvents()

		// First run: stop a third of the way in, events still pending.
		stopAt := budget / 3
		if _, err := e.Run(func() bool { return len(got.log) >= stopAt }, 0); err != nil {
			t.Fatalf("seed %d: first run: %v", seed, err)
		}
		if err := h.run(func() bool { return len(want.log) >= stopAt }); err != nil {
			t.Fatalf("seed %d: reference first run: %v", seed, err)
		}
		if got.live == 0 {
			t.Fatalf("seed %d: scenario left nothing pending across the two runs", seed)
		}
		requireNotQuiescent(t, e, fmt.Sprintf("seed %d, between runs, %d events pending", seed, got.live))

		if _, err := e.Run(func() bool { return got.live == 0 && got.tk.work == 0 }, 0); err != nil {
			t.Fatalf("seed %d: second run: %v", seed, err)
		}
		if err := h.run(func() bool { return want.live == 0 && want.tk.work == 0 }); err != nil {
			t.Fatalf("seed %d: reference second run: %v", seed, err)
		}

		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: fired %d events, the reference heap %d", seed, len(got.log), len(want.log))
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: firing %d is event %d at cycle %d, the reference heap fires event %d at cycle %d",
					seed, i, got.log[i].id, got.log[i].cycle, want.log[i].id, want.log[i].cycle)
			}
		}
		if len(got.log) < budget {
			t.Fatalf("seed %d: scenario fired %d of %d events", seed, len(got.log), budget)
		}
		if e.Cycle() != h.cycle || e.TickedCycles() != h.ticked || e.SkippedCycles() != h.skipped || e.FiredEvents() != h.fired {
			t.Fatalf("seed %d: cycle/ticked/skipped/fired = %d/%d/%d/%d, the reference heap gives %d/%d/%d/%d", seed,
				e.Cycle(), e.TickedCycles(), e.SkippedCycles(), e.FiredEvents(), h.cycle, h.ticked, h.skipped, h.fired)
		}
		if h.skipped == 0 || h.ticked < 100 {
			t.Fatalf("seed %d: scenario has no idle or no busy stretch (ticked %d, skipped %d)", seed, h.ticked, h.skipped)
		}
		if !e.Quiescent() {
			t.Fatalf("seed %d: drained engine is not quiescent", seed)
		}
	}
}

// requireNotQuiescent checks the three gates that must refuse while an
// event is pending.
func requireNotQuiescent(t *testing.T, e *Engine, when string) {
	t.Helper()
	if e.Quiescent() {
		t.Fatalf("%s: Quiescent() = true", when)
	}
	if err := e.AdvanceTime(1); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("%s: AdvanceTime = %v, want ErrNotQuiescent", when, err)
	}
	var w snap.Writer
	e.SaveState(&w)
	if err := w.Err(); !errors.Is(err, snap.ErrNotQuiescent) {
		t.Fatalf("%s: SaveState error = %v, want snap.ErrNotQuiescent", when, err)
	}
}

// TestEventStoreGatesSeeBothStores: one pending event is enough to refuse a
// snapshot or a time advance, whether it sits in the wheel or in the far
// heap, and firing it is enough to allow them again.
func TestEventStoreGatesSeeBothStores(t *testing.T) {
	for _, delay := range []uint64{0, 1, horizon - 1, horizon, 10 * horizon} {
		e := New()
		fired := false
		e.Schedule(delay, func() { fired = true })
		requireNotQuiescent(t, e, fmt.Sprintf("delay %d pending", delay))
		if _, err := e.Run(func() bool { return fired }, 0); err != nil {
			t.Fatalf("delay %d: %v", delay, err)
		}
		if e.Cycle() != delay {
			t.Errorf("delay %d fired at cycle %d", delay, e.Cycle())
		}
		if !e.Quiescent() {
			t.Errorf("delay %d: engine not quiescent after its only event fired", delay)
		}
		if err := e.AdvanceTime(5); err != nil {
			t.Errorf("delay %d: AdvanceTime after the drain: %v", delay, err)
		}
		var w snap.Writer
		e.SaveState(&w)
		if err := w.Err(); err != nil {
			t.Errorf("delay %d: SaveState after the drain: %v", delay, err)
		}
	}
}

// TestEventStoreLeftoverDoesNotAlias is the regression for the horizon
// rule. A delay-0 Schedule from a Tick at cycle c is left over: it fires in
// c+1's event phase, out of bucket c. What it schedules then with delay
// wheelSize-1 is due c+wheelSize, which is bucket c again. Filed near, it
// would join the bucket being drained and fire wheelSize cycles early; the
// horizon of wheelSize-1 files it far.
func TestEventStoreLeftoverDoesNotAlias(t *testing.T) {
	for _, delay := range []uint64{wheelSize - 2, wheelSize - 1, wheelSize} {
		e := New()
		var leftoverAt, firedAt uint64
		done := false
		tk := &fakeTicker{name: "t", busyUntil: 6}
		tk.onTick = func(cycle uint64) {
			if cycle != 5 {
				return
			}
			e.Schedule(0, func() {
				leftoverAt = e.Cycle()
				e.Schedule(delay, func() { firedAt = e.Cycle(); done = true })
			})
		}
		e.Register(tk)
		if _, err := e.Run(func() bool { return done }, 0); err != nil {
			t.Fatalf("delay %d: %v", delay, err)
		}
		if leftoverAt != 6 {
			t.Fatalf("delay %d: the leftover of cycle 5 fired at cycle %d, want 6", delay, leftoverAt)
		}
		if want := leftoverAt + delay; firedAt != want {
			t.Errorf("delay %d scheduled by a leftover fired at cycle %d, want %d", delay, firedAt, want)
		}
	}
}

// relaxedPins are the counters of the relaxed scenario below as the heap
// engine of the parent commit produced them (same test, same seeds, run
// there before the wheel existed). A relaxed run has no reference loop here
// (it would be the engine's own pass, fold and catch-up again), so its
// order is checked against the reference heap event by event and its
// counters against these.
var relaxedPins = map[int64][4]uint64{
	1: {10998, 5649, 5351, 3000},
	2: {10851, 5825, 5028, 3000},
	3: {11217, 5604, 5615, 3000},
	4: {10890, 6405, 4487, 3000},
	5: {10916, 5619, 5299, 3000},
	6: {11106, 5441, 5667, 3000},
	7: {10970, 5909, 5063, 3000},
	8: {11099, 6249, 4852, 3000},
}

// TestEventStoreRelaxedMatchesReferenceHeap runs the scenario with the
// ticker in the epoch-local segment at SetEpoch(8), where Schedule calls
// made in the pass are enqueued late, by the fold, at their capture cycle
// plus delay. Every event the engine fires must be the one the reference
// heap would pop, keyed by (due cycle, order of the Schedule call), and must
// fire at its due cycle, or one later when its due cycle's event phase was
// already over when it was enqueued: late, never early.
func TestEventStoreRelaxedMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= int64(len(relaxedPins)); seed++ {
		const budget = 3000
		e := New()
		e.SetEpoch(8)
		ctx := e.ShardContext(0)
		rig := newStoreRig(seed, ctx, budget)
		e.RegisterSharded(rig.tk, 0)

		var oracle refHeap
		type expect struct{ due, notBefore uint64 }
		expected := map[int]expect{}
		restartAt := noEvent
		rig.onSchedule = func(id int, delay uint64) {
			due := ctx.Cycle() + delay
			// An event enqueued from a tick cannot fire in that engine
			// cycle's event phase any more.
			notBefore := e.Cycle()
			if rig.tk.inTick {
				notBefore++
			}
			expected[id] = expect{due, notBefore}
			oracle.push(refEvent{cycle: due, seq: uint64(id)})
		}
		rig.onFire = func(id int) {
			if len(oracle) == 0 {
				t.Fatalf("seed %d: event %d fired with the reference heap empty", seed, id)
			}
			if top := oracle.pop(); top.seq != uint64(id) {
				t.Fatalf("seed %d: fired event %d (due %d) at cycle %d; the reference heap pops event %d (due %d)",
					seed, id, expected[id].due, e.Cycle(), top.seq, top.cycle)
			}
			x := expected[id]
			want := max(x.due, x.notBefore)
			// A second RunCtx opens with an event phase at the cycle the
			// first one stopped at.
			if x.notBefore == restartAt+1 && x.due <= restartAt && e.Cycle() == restartAt {
				want = restartAt
			}
			if e.Cycle() != want {
				t.Fatalf("seed %d: event %d due %d, enqueued for cycle %d at the earliest, fired at cycle %d, want %d",
					seed, id, x.due, x.notBefore, e.Cycle(), want)
			}
		}
		rig.seedEvents()

		stopAt := budget / 3
		if _, err := e.Run(func() bool { return len(rig.log) >= stopAt }, 0); err != nil {
			t.Fatalf("seed %d: first run: %v", seed, err)
		}
		if rig.live > 0 {
			requireNotQuiescent(t, e, fmt.Sprintf("seed %d, relaxed, between runs", seed))
		}
		restartAt = e.Cycle()
		if _, err := e.Run(func() bool { return rig.live == 0 && rig.tk.work == 0 }, 0); err != nil {
			t.Fatalf("seed %d: second run: %v", seed, err)
		}
		if len(oracle) != 0 || len(rig.log) != budget {
			t.Fatalf("seed %d: fired %d of %d events, %d left in the reference heap", seed, len(rig.log), budget, len(oracle))
		}
		if e.FiredEvents() != uint64(budget) {
			t.Fatalf("seed %d: FiredEvents = %d, want %d", seed, e.FiredEvents(), budget)
		}
		got := [4]uint64{e.Cycle(), e.TickedCycles(), e.SkippedCycles(), e.FiredEvents()}
		if pin := relaxedPins[seed]; got != pin {
			t.Errorf("seed %d: cycle/ticked/skipped/fired = %v, the heap engine gave %v", seed, got, pin)
		}
	}
}
