package engine

import (
	"fmt"
	"testing"
)

// wakeTicker is a wake-aware fake: busy while work > 0, consuming one unit
// of work per tick. External input arrives via give(), which models a port
// Accept — it adds work and invokes the wake callback.
type wakeTicker struct {
	name  string
	work  int
	wake  func()
	ticks int
	// tickLog records the cycle of every tick, for order/visibility checks.
	tickLog []uint64
	onTick  func(cycle uint64)
}

func (w *wakeTicker) Name() string        { return w.name }
func (w *wakeTicker) Kind() ModelKind     { return CycleAccurate }
func (w *wakeTicker) Busy() bool          { return w.work > 0 }
func (w *wakeTicker) SetWake(wake func()) { w.wake = wake }
func (w *wakeTicker) Tick(cycle uint64) {
	w.ticks++
	w.tickLog = append(w.tickLog, cycle)
	if w.onTick != nil {
		w.onTick(cycle)
	}
	if w.work > 0 {
		w.work--
	}
}

func (w *wakeTicker) give(n int) {
	w.work += n
	if w.wake != nil {
		w.wake()
	}
}

// TestActiveSetOscillation: a ticker that repeatedly drains its work and is
// re-woken by events is ticked while busy, left alone while idle, and the
// engine fast-forwards the idle gaps.
func TestActiveSetOscillation(t *testing.T) {
	e := New()
	tk := &wakeTicker{name: "osc"}
	e.Register(tk)

	// Bursts of 10 cycles of work arriving every 1000 cycles.
	const bursts = 5
	for i := 0; i < bursts; i++ {
		e.Schedule(uint64(1+i*1000), func() { tk.give(10) })
	}
	done := false
	e.Schedule(bursts*1000+100, func() { done = true })
	if _, err := e.Run(func() bool { return done }, 0); err != nil {
		t.Fatal(err)
	}
	// Each burst costs ~10 busy ticks plus a couple of activation ticks;
	// without the active set the run would tick ~5100 times.
	if tk.ticks > bursts*15 {
		t.Errorf("oscillating ticker ticked %d times, want ~%d (idle cycles not skipped)", tk.ticks, bursts*11)
	}
	if tk.work != 0 {
		t.Errorf("undrained work: %d", tk.work)
	}
	if e.SkippedCycles() < 4000 {
		t.Errorf("SkippedCycles = %d, want most of the idle gaps", e.SkippedCycles())
	}
}

// TestWakeDuringFastForward: an event that lands mid-fast-forward and wakes
// an idle module gets that module ticked at the event's cycle.
func TestWakeDuringFastForward(t *testing.T) {
	e := New()
	tk := &wakeTicker{name: "sleeper"}
	e.Register(tk)

	const wakeAt = 500_000
	e.Schedule(wakeAt, func() { tk.give(3) })
	done := false
	e.Schedule(wakeAt+100, func() { done = true })
	cyc, err := e.Run(func() bool { return done }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cyc != wakeAt+100 {
		t.Errorf("final cycle = %d, want %d", cyc, wakeAt+100)
	}
	found := false
	for _, c := range tk.tickLog {
		if c == wakeAt {
			found = true
		}
		if c > wakeAt && c < wakeAt+3 && tk.work > 0 {
			t.Errorf("work left after cycle %d", c)
		}
	}
	if !found {
		t.Errorf("module not ticked at wake cycle %d; tickLog=%v", wakeAt, tk.tickLog)
	}
}

// TestActiveSetRegistrationOrder: within one cycle, active tickers tick in
// registration order regardless of the order they were woken in.
func TestActiveSetRegistrationOrder(t *testing.T) {
	e := New()
	const n = 8
	// Record the global (index, cycle) tick sequence.
	var order []int
	var cycles []uint64
	tks := make([]*wakeTicker, n)
	for i := 0; i < n; i++ {
		i := i
		tks[i] = &wakeTicker{name: fmt.Sprintf("t%d", i)}
		tks[i].onTick = func(c uint64) {
			order = append(order, i)
			cycles = append(cycles, c)
		}
		e.Register(tks[i])
	}
	// Wake in scrambled order at cycle 10 (after all have gone idle).
	e.Schedule(10, func() {
		for _, i := range []int{5, 2, 7, 0, 3, 6, 1, 4} {
			tks[i].give(1)
		}
	})
	done := false
	e.Schedule(12, func() { done = true })
	if _, err := e.Run(func() bool { return done }, 0); err != nil {
		t.Fatal(err)
	}
	// The ticks at cycle 10 must be indices 0..n-1 in ascending order.
	var at10 []int
	for k := range order {
		if cycles[k] == 10 {
			at10 = append(at10, order[k])
		}
	}
	if len(at10) != n {
		t.Fatalf("ticked %d modules at wake cycle, want %d (%v)", len(at10), n, at10)
	}
	for k := 1; k < n; k++ {
		if at10[k] < at10[k-1] {
			t.Fatalf("cycle-10 tick order not registration order: %v", at10)
		}
	}
}

// TestActiveSetSameCycleVisibility: waking a later-registered idle module
// ticks it the same cycle (downstream visibility); waking an
// earlier-registered one defers to the next visited cycle — the
// registration-order semantics of ticking every module every cycle. With
// more than 128 modules the waker and the woken sit in different words of
// the active set, in both orders.
func TestActiveSetSameCycleVisibility(t *testing.T) {
	for _, tc := range []struct{ modules, waker, woken int }{
		{2, 0, 1},     // down accepts during up's tick
		{2, 1, 0},     // an upstream response path
		{200, 5, 150}, // word 0 wakes word 2
		{200, 150, 5}, // word 2 wakes word 0
		{200, 63, 64}, // adjacent words
		{200, 64, 63},
	} {
		e := New()
		ts := make([]*wakeTicker, tc.modules)
		for i := range ts {
			ts[i] = &wakeTicker{name: fmt.Sprintf("m%d", i)}
			e.Register(ts[i])
		}
		const fireAt = 100
		waker, woken := ts[tc.waker], ts[tc.woken]
		waker.onTick = func(cycle uint64) {
			if cycle == fireAt {
				woken.give(1)
			}
		}
		e.Schedule(fireAt, func() { waker.give(1) })
		done := false
		e.Schedule(fireAt+5, func() { done = true })
		if _, err := e.Run(func() bool { return done }, 0); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%d modules, %d wakes %d", tc.modules, tc.waker, tc.woken)
		if tc.woken > tc.waker {
			if !containsCycle(woken.tickLog, fireAt) {
				t.Errorf("%s: woken module not ticked the same cycle %d; log=%v", name, fireAt, woken.tickLog)
			}
			continue
		}
		if containsCycle(woken.tickLog, fireAt) {
			t.Errorf("%s: earlier module ticked the same cycle it was woken by a later-registered one; log=%v", name, woken.tickLog)
		}
		if !containsCycle(woken.tickLog, fireAt+1) {
			t.Errorf("%s: earlier module not ticked the cycle after its wake; log=%v", name, woken.tickLog)
		}
	}
}

func containsCycle(log []uint64, c uint64) bool {
	for _, x := range log {
		if x == c {
			return true
		}
	}
	return false
}

// waitTicker models a cache: each unit of work it is given costs one tick,
// which sends a request whose completion returns lat cycles later. It is
// busy while it has work or a request outstanding, and waiting while only
// requests are outstanding. It keeps the wake contract: give wakes it, and
// so does the completion that ends its last outstanding request.
type waitTicker struct {
	wakeTicker
	eng         *Engine
	lat         uint64
	outstanding int
	sentAt      []uint64 // the cycle of each request sent
}

func (w *waitTicker) Busy() bool    { return w.work > 0 || w.outstanding > 0 }
func (w *waitTicker) Waiting() bool { return w.work == 0 }
func (w *waitTicker) Tick(cycle uint64) {
	sent := w.work > 0
	w.wakeTicker.Tick(cycle)
	if sent {
		w.sentAt = append(w.sentAt, cycle)
		w.outstanding++
		w.eng.Schedule(w.lat, func() {
			if w.outstanding--; w.outstanding == 0 && w.wake != nil {
				w.wake()
			}
		})
	}
}

// tickedTwin is w as a plain Ticker: the engine cannot see it wait, so it
// ticks it every cycle it is busy, as it did every busy cache before the
// waiting class.
type tickedTwin struct{ w *waitTicker }

func (t tickedTwin) Name() string        { return t.w.name }
func (t tickedTwin) Kind() ModelKind     { return CycleAccurate }
func (t tickedTwin) Busy() bool          { return t.w.Busy() }
func (t tickedTwin) SetWake(wake func()) { t.w.SetWake(wake) }
func (t tickedTwin) Tick(cycle uint64)   { t.w.Tick(cycle) }

// waitScenario registers a waiter (as itself, or as its always-ticked twin)
// and an observer after it, gives the waiter one unit of work at cycle 10
// and another from the observer's tick at cycle 300, and runs to cycle
// 1000. It returns the engine and the waiter.
func waitScenario(t *testing.T, twin bool) (*Engine, *waitTicker) {
	t.Helper()
	e := New()
	w := &waitTicker{wakeTicker: wakeTicker{name: "cache"}, eng: e, lat: 100}
	obs := &wakeTicker{name: "observer"}
	if twin {
		e.Register(tickedTwin{w})
	} else {
		e.Register(w)
	}
	e.Register(obs)
	obs.onTick = func(cycle uint64) {
		if cycle == 300 {
			w.give(1)
		}
	}
	e.Schedule(10, func() { w.give(1) })
	e.Schedule(300, func() { obs.give(0) })
	done := false
	e.Schedule(1000, func() { done = true })
	if _, err := e.Run(func() bool { return done }, 0); err != nil {
		t.Fatal(err)
	}
	return e, w
}

// TestWaiterIsNotTickedYetHoldsTheClock: a busy waiter leaves the tick set,
// but it still keeps the engine from fast-forwarding past its outstanding
// request, so the run's ticked and skipped cycles are those of ticking it
// every cycle.
func TestWaiterIsNotTickedYetHoldsTheClock(t *testing.T) {
	e, w := waitScenario(t, false)
	twinEng, twin := waitScenario(t, true)
	// The registration tick, the tick that sends each request, and the tick
	// each last completion's wake brings.
	if want := []uint64{0, 10, 110, 301, 401}; fmt.Sprint(w.tickLog) != fmt.Sprint(want) {
		t.Errorf("waiter ticked at %v, want %v", w.tickLog, want)
	}
	if twin.ticks < 200 {
		t.Errorf("the always-ticked twin ticked only %d times", twin.ticks)
	}
	if e.TickedCycles() != twinEng.TickedCycles() || e.SkippedCycles() != twinEng.SkippedCycles() {
		t.Errorf("ticked/skipped %d/%d, the always-ticked twin's %d/%d",
			e.TickedCycles(), e.SkippedCycles(), twinEng.TickedCycles(), twinEng.SkippedCycles())
	}
	if e.TickedCycles() < 200 {
		t.Errorf("ticked %d cycles: the waiting cache did not hold the clock through its requests", e.TickedCycles())
	}
	if got, want := e.ModuleTicks(), twinEng.ModuleTicks(); got >= want {
		t.Errorf("module ticks %d, not fewer than the twin's %d", got, want)
	}
}

// TestWaiterWakeVisibility: a waiter woken from the event phase is ticked
// the same cycle (the completion at 110), and one woken from a
// later-registered module's Tick the next cycle (the observer's give at
// 300 is sent at 301), which is when an always-ticked waiter, already
// ticked at 300, would see it too.
func TestWaiterWakeVisibility(t *testing.T) {
	_, w := waitScenario(t, false)
	_, twin := waitScenario(t, true)
	if !containsCycle(w.tickLog, 110) {
		t.Errorf("not ticked in the cycle of the event-phase wake; log=%v", w.tickLog)
	}
	if containsCycle(w.tickLog, 300) || !containsCycle(w.tickLog, 301) {
		t.Errorf("a later module's wake at 300 should tick it at 301 only; log=%v", w.tickLog)
	}
	if fmt.Sprint(w.sentAt) != "[10 301]" || fmt.Sprint(twin.sentAt) != fmt.Sprint(w.sentAt) {
		t.Errorf("requests sent at %v, the twin's at %v, want [10 301]", w.sentAt, twin.sentAt)
	}
}

// TestWaiterBusyFalseWakeCountsOnItsCycle: the wake a waiter gives when its
// Busy turns false brings the tick that takes it out of busyCount on that
// cycle, so the engine fast-forwards from there as it would have.
func TestWaiterBusyFalseWakeCountsOnItsCycle(t *testing.T) {
	e := New()
	w := &waitTicker{wakeTicker: wakeTicker{name: "cache"}, eng: e, lat: 100}
	obs := &wakeTicker{name: "observer"}
	e.Register(w)
	e.Register(obs)
	var seen []string
	obs.onTick = func(cycle uint64) {
		seen = append(seen, fmt.Sprintf("%d:%d/%d", cycle, e.busyCount, e.ActiveTickers()))
	}
	e.Schedule(10, func() { w.give(1) })
	for _, c := range []uint64{50, 110} {
		e.Schedule(c, func() { obs.give(0) })
	}
	done := false
	e.Schedule(1000, func() { done = true })
	if _, err := e.Run(func() bool { return done }, 0); err != nil {
		t.Fatal(err)
	}
	// At 50 the waiter is counted busy but off the tick set, where the
	// observer ticks alone. At 110 the completion's wake has ticked it, ahead
	// of the observer, and it is counted out.
	if want := "[0:0/1 50:1/1 110:0/1]"; fmt.Sprint(seen) != want {
		t.Errorf("observer saw cycle:busy/active %v, want %s", seen, want)
	}
	// Skipped: 1..9 before the work, and 111..999 after the waiter went idle.
	if want := uint64(9 + 889); e.SkippedCycles() != want {
		t.Errorf("skipped %d cycles, want %d", e.SkippedCycles(), want)
	}
}

// BenchmarkEngineActiveSet quantifies the scheduling win: many registered
// tickers, few busy — the common late-simulation state where most SMs have
// drained.
func BenchmarkEngineActiveSet(b *testing.B) {
	const nTickers = 256
	const busyTickers = 4
	const horizon = 10_000

	b.Run("wake", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := New()
			for k := 0; k < nTickers; k++ {
				w := &wakeTicker{name: fmt.Sprintf("t%d", k)}
				if k < busyTickers {
					w.work = horizon
				}
				e.Register(w)
			}
			done := false
			e.Schedule(horizon+1, func() { done = true })
			if _, err := e.Run(func() bool { return done }, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(horizon)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
	})
}
