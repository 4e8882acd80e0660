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
// registration-order semantics of ticking every module every cycle.
func TestActiveSetSameCycleVisibility(t *testing.T) {
	e := New()
	up := &wakeTicker{name: "up"}
	down := &wakeTicker{name: "down"}
	e.Register(up)   // idx 0
	e.Register(down) // idx 1

	const fireAt = 100
	up.onTick = func(cycle uint64) {
		if cycle == fireAt {
			down.give(1) // downstream accept during upstream tick
		}
	}
	e.Schedule(fireAt, func() { up.give(1) })
	done := false
	e.Schedule(fireAt+5, func() { done = true })
	if _, err := e.Run(func() bool { return done }, 0); err != nil {
		t.Fatal(err)
	}
	if !containsCycle(down.tickLog, fireAt) {
		t.Errorf("downstream not ticked same cycle %d; log=%v", fireAt, down.tickLog)
	}

	// Reverse direction: down wakes up (an upstream response path).
	e2 := New()
	up2 := &wakeTicker{name: "up"}
	down2 := &wakeTicker{name: "down"}
	e2.Register(up2)
	e2.Register(down2)
	down2.onTick = func(cycle uint64) {
		if cycle == fireAt {
			up2.give(1)
		}
	}
	e2.Schedule(fireAt, func() { down2.give(1) })
	done2 := false
	e2.Schedule(fireAt+5, func() { done2 = true })
	if _, err := e2.Run(func() bool { return done2 }, 0); err != nil {
		t.Fatal(err)
	}
	if containsCycle(up2.tickLog, fireAt) {
		t.Errorf("upstream ticked same cycle it was woken by a later-registered module; log=%v", up2.tickLog)
	}
	if !containsCycle(up2.tickLog, fireAt+1) {
		t.Errorf("upstream not ticked the cycle after its wake; log=%v", up2.tickLog)
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
