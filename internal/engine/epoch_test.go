package engine

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// staleTicker models the SM's cached-busy hazard: Busy() returns a cache
// refreshed only inside Tick, so a wake arriving between ticks is not yet
// reflected in the polled busy state — exactly the window the relaxed
// engine's catch-up phase exposes.
type staleTicker struct {
	name      string
	wake      func()
	work      int
	busyCache bool
	ticks     int
	tickLog   []uint64
}

func (s *staleTicker) Name() string        { return s.name }
func (s *staleTicker) Kind() ModelKind     { return CycleAccurate }
func (s *staleTicker) Busy() bool          { return s.busyCache }
func (s *staleTicker) SetWake(wake func()) { s.wake = wake }
func (s *staleTicker) Tick(cycle uint64) {
	s.ticks++
	s.tickLog = append(s.tickLog, cycle)
	if s.work > 0 {
		s.work--
	}
	s.busyCache = s.work > 0
}

// give adds work and wakes WITHOUT refreshing the busy cache, like a block
// assignment or a fill completion landing between ticks.
func (s *staleTicker) give(n int) {
	s.work += n
	s.wake()
}

// TestSetEpochClamp pins the configuration contract: the default and any
// k < 1 mean exact mode.
func TestSetEpochClamp(t *testing.T) {
	e := New()
	if got := e.EpochCycles(); got != 1 {
		t.Errorf("default EpochCycles = %d, want 1", got)
	}
	e.SetEpoch(0)
	if got := e.EpochCycles(); got != 1 {
		t.Errorf("SetEpoch(0): EpochCycles = %d, want 1", got)
	}
	e.SetEpoch(8)
	if got := e.EpochCycles(); got != 8 {
		t.Errorf("SetEpoch(8): EpochCycles = %d, want 8", got)
	}
}

// TestEpochK1MatchesSerial pins that SetEpoch(1) is the exact run: the full
// per-module tick history of an assembly registered through RegisterSharded
// equals the plain-Register engine's.
func TestEpochK1MatchesSerial(t *testing.T) {
	serial := newParallelFixture(8, 0, 2)
	serial.run(t, 400)
	want := serial.history()
	f := newParallelFixture(8, 2, 2)
	f.e.SetEpoch(1)
	f.run(t, 400)
	if got := f.history(); got != want {
		t.Errorf("SetEpoch(1) diverged from serial:\n--- serial ---\n%s--- epoch k=1 ---\n%s", want, got)
	}
}

// requireReproducible runs build's assembly to horizon reps+1 times and
// requires every tick history to equal the first. Relaxed mode has no
// serial-history equivalent, so determinism is its oracle.
func requireReproducible(t *testing.T, build func() *parallelFixture, horizon uint64, reps int) *parallelFixture {
	t.Helper()
	first := build()
	first.run(t, horizon)
	want := first.history()
	for rep := 0; rep < reps; rep++ {
		f := build()
		f.run(t, horizon)
		if got := f.history(); got != want {
			t.Fatalf("rerun %d diverged (relaxed mode must be deterministic):\n--- first ---\n%s--- rerun ---\n%s", rep, want, got)
		}
	}
	return first
}

// TestEpochReproducible pins relaxed-mode determinism at the engine level:
// identically built assemblies run with k=8 produce identical tick
// histories, cycle for cycle.
func TestEpochReproducible(t *testing.T) {
	requireReproducible(t, func() *parallelFixture {
		f := newParallelFixture(8, 2, 2)
		f.relax(8)
		return f
	}, 400, 3)
}

// TestEpochIdleFastForward pins the empty-segment path: with no segment
// work, an epoch engine still fast-forwards event to event like the serial
// one instead of grinding k cycles at a time.
func TestEpochIdleFastForward(t *testing.T) {
	e := New()
	e.SetParallel(2)
	e.SetEpoch(8)
	e.Register(&wakeTicker{name: "head"})
	e.RegisterSharded(&wakeTicker{name: "a"}, 0)
	e.RegisterSharded(&wakeTicker{name: "b"}, 1)
	done := false
	e.Schedule(100_000, func() { done = true })
	if _, err := e.Run(func() bool { return done }, 0); err != nil {
		t.Fatal(err)
	}
	if e.Cycle() != 100_000 {
		t.Errorf("Cycle = %d, want 100000", e.Cycle())
	}
	if e.TickedCycles() > 64 {
		t.Errorf("TickedCycles = %d; idle stretch was not fast-forwarded", e.TickedCycles())
	}
}

// TestEpochStaleWakeNoDeadlock is the regression test for the catch-up wake
// hazard: an event firing during the epoch's catch-up phase wakes a segment
// module whose polled busy state is stale-false. The catch-up phase never
// ticks the segment, so without the pending-entry check in anyBusy
// the engine saw "no events, nothing busy" at the epoch's end and declared
// a deadlock. The woken module must instead be ticked in the next epoch.
func TestEpochStaleWakeNoDeadlock(t *testing.T) {
	e := New()
	e.SetParallel(2)
	e.SetEpoch(8)
	e.Register(&wakeTicker{name: "head"})
	sm := &staleTicker{name: "sm", work: 3, busyCache: true}
	e.RegisterSharded(sm, 0)
	e.RegisterSharded(&wakeTicker{name: "other"}, 1)

	// Lands at catch-up cycle 3 of the first epoch [0..7]: the segment pass is
	// over, so the wake leaves sm pending with a stale busy cache.
	e.Schedule(3, func() { sm.give(1) })

	if _, err := e.Run(func() bool { return sm.ticks >= 4 }, 10_000); err != nil {
		t.Fatalf("relaxed run deadlocked on a stale wake: %v", err)
	}
	if sm.ticks < 4 {
		t.Fatalf("sm ticked %d times, want 4", sm.ticks)
	}
	// The post-wake tick belongs to the next epoch, never the current one.
	if last := sm.tickLog[len(sm.tickLog)-1]; last < 8 {
		t.Errorf("post-wake tick at cycle %d; catch-up must not tick the segment", last)
	}
}

// TestEpochEventsNeverEarly pins the correct-or-late rule: a completion
// event scheduled from inside a segment pass fires at or after its true
// cycle, never before.
func TestEpochEventsNeverEarly(t *testing.T) {
	const k = 8
	e := New()
	e.SetParallel(2)
	e.SetEpoch(k)
	e.Register(&wakeTicker{name: "head"})
	a := &wakeTicker{name: "a", work: 20}
	b := &wakeTicker{name: "b", work: 20}
	ctx := e.ShardContext(0)
	type fire struct{ sched, actual uint64 }
	var fires []fire
	a.onTick = func(cycle uint64) {
		if cycle%3 == 1 {
			sched := cycle + 2
			ctx.Schedule(2, func() {
				fires = append(fires, fire{sched, e.Cycle()})
			})
		}
	}
	e.RegisterSharded(a, 0)
	e.RegisterSharded(b, 1)
	done := false
	e.Schedule(60, func() { done = true })
	if _, err := e.Run(func() bool { return done }, 0); err != nil {
		t.Fatal(err)
	}
	if len(fires) == 0 {
		t.Fatal("no staged events fired")
	}
	for i, f := range fires {
		if f.actual < f.sched {
			t.Errorf("fire %d: event scheduled for cycle %d fired early at %d", i, f.sched, f.actual)
		}
		if f.actual > f.sched+2*k {
			t.Errorf("fire %d: event scheduled for cycle %d fired at %d, beyond the staleness bound", i, f.sched, f.actual)
		}
	}
}

// TestEpochQuiescent pins the snapshot gate: quiescent means no events and
// no busy or pending module.
func TestEpochQuiescent(t *testing.T) {
	e := New()
	w := &wakeTicker{name: "w"}
	e.Register(w)
	if !e.Quiescent() {
		t.Fatal("fresh idle engine not quiescent")
	}
	e.Schedule(5, func() {})
	if e.Quiescent() {
		t.Fatal("engine with a scheduled event reported quiescent")
	}
	done := false
	e.Schedule(6, func() { done = true })
	if _, err := e.Run(func() bool { return done }, 0); err != nil {
		t.Fatal(err)
	}
	if !e.Quiescent() {
		t.Fatal("drained engine not quiescent")
	}
	w.give(1)
	if e.Quiescent() {
		t.Fatal("busy module reported quiescent")
	}
}

// TestEpochHeavyTrafficReproducible stresses the fold with many segment
// modules and heavy staged traffic at several epoch lengths; every k must
// be self-consistent across repeats.
func TestEpochHeavyTrafficReproducible(t *testing.T) {
	for _, k := range []int{2, 8, 64} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			requireReproducible(t, func() *parallelFixture {
				f := newParallelFixture(16, 4, 4)
				f.relax(k)
				return f
			}, 600, 1)
		})
	}
}

// randomized gives every SM of f a seeded random amount of initial work
// (zero = starts idle, woken later) and event budget.
func (f *parallelFixture) randomized(seed uint64, maxWork, maxBudget int) *parallelFixture {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	for _, sm := range f.sms {
		sm.work = rng.IntN(maxWork)
		sm.budget = rng.IntN(maxBudget)
	}
	return f
}

// TestEpochStressCatchUpAndDrain pins the epoch/catch-up interaction under
// load: a segment whose pass list drains to empty mid-epoch (its staging
// window must close cleanly), serial modules woken by deferred
// notifications at the fold (their catch-up cycles run batched event
// wakes), and segment entries re-woken by completion events during those
// catch-up windows.
func TestEpochStressCatchUpAndDrain(t *testing.T) {
	first := requireReproducible(t, func() *parallelFixture {
		// Shallow work: the segment drains mid-epoch.
		f := newParallelFixture(12, 3, 3).randomized(7, 4, 10)
		f.relax(8)
		return f
	}, 600, 3)
	if len(first.coll.tickLog) == 0 {
		t.Fatal("collector never ticked — the catch-up path was not exercised")
	}
}

// TestBarrierStressRandomImbalance (named for the worker barrier its matrix
// once stressed; what it stresses now is the fold): runs with randomized
// per-SM work and event budgets, so the segment's modules go idle and wake
// at very different times, over the (shard count, k) matrix. At k = 1 every
// cell must match a plain-Register engine's history exactly. At k > 1 there
// is no serial equivalent; the schedule is a function of (assembly, k)
// alone, so every shard count — every way of spreading the modules over
// shard indices that all name one segment — must agree with the first.
func TestBarrierStressRandomImbalance(t *testing.T) {
	const nSMs, sibStep = 24, 12
	horizon, seeds := uint64(500), uint64(4)
	if testing.Short() {
		horizon, seeds = 200, 2
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, k := range []int{1, 2, 8} {
			var want string
			for _, nShards := range []int{0, 1, 2, 3, 4} {
				if nShards == 0 && k > 1 {
					continue // plain Register has no relaxed run
				}
				f := newParallelFixture(nSMs, nShards, sibStep).randomized(seed, 6, 12)
				if k > 1 {
					f.relax(k)
				}
				f.run(t, horizon)
				if want == "" {
					want = f.history()
				}
				if got := f.history(); got != want {
					t.Errorf("seed=%d shards=%d k=%d diverged:\n--- want ---\n%s--- got ---\n%s", seed, nShards, k, want, got)
				}
			}
		}
	}
}
