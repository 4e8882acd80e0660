package engine

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// fakeTicker counts ticks and stays busy for a configured number of cycles.
type fakeTicker struct {
	name      string
	busyUntil uint64
	cycle     uint64
	ticks     int
	onTick    func(cycle uint64)
}

func (f *fakeTicker) Name() string    { return f.name }
func (f *fakeTicker) Kind() ModelKind { return CycleAccurate }
func (f *fakeTicker) Busy() bool      { return f.cycle < f.busyUntil }
func (f *fakeTicker) SetWake(func())  {}
func (f *fakeTicker) Tick(cycle uint64) {
	f.cycle = cycle
	f.ticks++
	if f.onTick != nil {
		f.onTick(cycle)
	}
}

type fakeModule struct{ name string }

func (f fakeModule) Name() string    { return f.name }
func (f fakeModule) Kind() ModelKind { return Analytical }

func TestRunImmediateDone(t *testing.T) {
	e := New()
	cyc, err := e.Run(func() bool { return true }, 0)
	if err != nil || cyc != 0 {
		t.Fatalf("Run = %d, %v; want 0, nil", cyc, err)
	}
}

func TestEventOrderingWithinCycle(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	done := false
	e.Schedule(1, func() { done = true })
	if _, err := e.Run(func() bool { return done }, 100); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("events fired out of FIFO order: %v", order)
	}
	if len(order) != 10 {
		t.Errorf("fired %d events, want 10", len(order))
	}
}

func TestEventOrderingAcrossCycles(t *testing.T) {
	e := New()
	var fired []uint64
	delays := []uint64{50, 3, 20, 3, 1, 100, 7}
	for _, d := range delays {
		e.Schedule(d, func() { fired = append(fired, e.Cycle()) })
	}
	done := false
	e.Schedule(101, func() { done = true })
	if _, err := e.Run(func() bool { return done }, 1000); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 3, 3, 7, 20, 50, 100}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestFastForwardSkipsIdleCycles(t *testing.T) {
	e := New()
	tk := &fakeTicker{name: "idle"}
	e.Register(tk)
	done := false
	e.Schedule(1_000_000, func() { done = true })
	cyc, err := e.Run(func() bool { return done }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cyc != 1_000_000 {
		t.Errorf("final cycle = %d, want 1000000", cyc)
	}
	if tk.ticks > 10 {
		t.Errorf("idle ticker ticked %d times; fast-forward failed", tk.ticks)
	}
	if e.SkippedCycles() < 999_000 {
		t.Errorf("SkippedCycles = %d, want ~1e6", e.SkippedCycles())
	}
}

func TestBusyTickerPreventsFastForward(t *testing.T) {
	e := New()
	tk := &fakeTicker{name: "busy", busyUntil: 1000}
	e.Register(tk)
	done := false
	e.Schedule(1000, func() { done = true })
	if _, err := e.Run(func() bool { return done }, 0); err != nil {
		t.Fatal(err)
	}
	if tk.ticks < 1000 {
		t.Errorf("busy ticker ticked %d times, want >= 1000", tk.ticks)
	}
	if e.SkippedCycles() != 0 {
		t.Errorf("SkippedCycles = %d, want 0", e.SkippedCycles())
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New()
	e.Register(&fakeTicker{name: "idle"})
	_, err := e.Run(func() bool { return false }, 0)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestCycleLimit(t *testing.T) {
	e := New()
	e.Register(&fakeTicker{name: "forever", busyUntil: ^uint64(0)})
	_, err := e.Run(func() bool { return false }, 500)
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrCycleLimit", err)
	}
}

func TestEventsScheduledDuringTick(t *testing.T) {
	e := New()
	completions := 0
	tk := &fakeTicker{name: "issuer", busyUntil: 5}
	tk.onTick = func(cycle uint64) {
		if cycle < 5 {
			e.Schedule(10, func() { completions++ })
		}
	}
	e.Register(tk)
	done := false
	e.Schedule(100, func() { done = true })
	if _, err := e.Run(func() bool { return done }, 0); err != nil {
		t.Fatal(err)
	}
	if completions != 5 {
		t.Errorf("completions = %d, want 5", completions)
	}
}

func TestZeroDelayEventRunsPromptly(t *testing.T) {
	e := New()
	hits := 0
	e.Schedule(1, func() {
		e.Schedule(0, func() { hits++ })
	})
	done := false
	e.Schedule(3, func() { done = true })
	if _, err := e.Run(func() bool { return done }, 100); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
}

func TestInventory(t *testing.T) {
	e := New()
	e.Register(&fakeTicker{name: "sched"})
	e.AddModule(fakeModule{name: "aluModel"})
	inv := e.Inventory()
	if len(inv) != 2 {
		t.Fatalf("inventory size = %d, want 2", len(inv))
	}
	if inv[0].Name != "sched" || inv[0].Kind != CycleAccurate {
		t.Errorf("inv[0] = %+v", inv[0])
	}
	if inv[1].Name != "aluModel" || inv[1].Kind != Analytical {
		t.Errorf("inv[1] = %+v", inv[1])
	}
}

func TestModelKindString(t *testing.T) {
	if CycleAccurate.String() != "cycle-accurate" || Analytical.String() != "analytical" {
		t.Error("ModelKind.String mismatch")
	}
	if ModelKind(42).String() == "" {
		t.Error("unknown ModelKind must stringify non-empty")
	}
}

// TestQuickEventOrder: for any set of scheduled delays, events fire in
// nondecreasing cycle order and all fire exactly once.
func TestQuickEventOrder(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%64
		e := New()
		var fired []uint64
		maxDelay := uint64(0)
		for i := 0; i < n; i++ {
			d := uint64(r.Intn(1000)) + 1
			if d > maxDelay {
				maxDelay = d
			}
			e.Schedule(d, func() { fired = append(fired, e.Cycle()) })
		}
		done := false
		e.Schedule(maxDelay+1, func() { done = true })
		if _, err := e.Run(func() bool { return done }, 0); err != nil {
			return false
		}
		if len(fired) != n {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHeap: the event queue is a correct priority queue for arbitrary
// push/pop interleavings.
func TestQuickHeap(t *testing.T) {
	f := func(cycles []uint64) bool {
		var q eventQueue
		for i, c := range cycles {
			q.push(event{cycle: c, seq: uint64(i)})
		}
		prev := uint64(0)
		for len(q) > 0 {
			ev := q.pop()
			if ev.cycle < prev {
				return false
			}
			prev = ev.cycle
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRunCtxPreCanceled: an already-canceled context stops the run on the
// first scheduler iteration, and the error exposes both ErrCanceled and
// the context cause.
func TestRunCtxPreCanceled(t *testing.T) {
	e := New()
	tk := &fakeTicker{name: "busy", busyUntil: 1 << 40}
	e.Register(tk)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.RunCtx(ctx, func() bool { return false }, 0)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	if tk.ticks > ctxPollInterval {
		t.Errorf("engine ticked %d times after pre-cancel", tk.ticks)
	}
}

// TestRunCtxCancelMidRun: cancellation during a run stops the engine
// within one poll interval of the cancel point.
func TestRunCtxCancelMidRun(t *testing.T) {
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	const cancelAt = 10 * ctxPollInterval
	tk := &fakeTicker{name: "busy", busyUntil: 1 << 40}
	tk.onTick = func(cycle uint64) {
		if cycle == cancelAt {
			cancel()
		}
	}
	e.Register(tk)
	cyc, err := e.RunCtx(ctx, func() bool { return false }, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if cyc < cancelAt || cyc > cancelAt+2*ctxPollInterval {
		t.Errorf("stopped at cycle %d, want within one poll interval of %d", cyc, cancelAt)
	}
}

// lateTimerCtx is a context whose deadline has passed but whose Done
// channel has not been closed yet: what a context.WithTimeout looks like to
// a run shorter than the runtime takes to get to the timer.
type lateTimerCtx struct{ context.Context }

func (lateTimerCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestRunCtxDeadlineDoesNotWaitForItsTimer: the poll reads the clock, so a
// passed deadline stops the run at the next poll even when nothing has
// closed Done, with the error a fired timer would have given.
func TestRunCtxDeadlineDoesNotWaitForItsTimer(t *testing.T) {
	e := New()
	tk := &fakeTicker{name: "busy", busyUntil: 1 << 40}
	e.Register(tk)
	base, cancel := context.WithCancel(context.Background()) // a Done channel nobody closes during the run
	defer cancel()
	_, err := e.RunCtx(lateTimerCtx{base}, func() bool { return false }, 0)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping context.DeadlineExceeded, got %v", err)
	}
	if tk.ticks > ctxPollInterval {
		t.Errorf("engine ticked %d times past the deadline", tk.ticks)
	}
}

// TestRunCtxNilContext: a nil context behaves exactly like Run.
func TestRunCtxNilContext(t *testing.T) {
	e := New()
	done := false
	e.Schedule(42, func() { done = true })
	cyc, err := e.RunCtx(nil, func() bool { return done }, 0)
	if err != nil || cyc != 42 {
		t.Fatalf("RunCtx(nil) = %d, %v; want 42, nil", cyc, err)
	}
}
