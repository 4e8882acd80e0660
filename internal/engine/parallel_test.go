package engine

import (
	"errors"
	"fmt"
	"testing"
)

// shardSM is a synthetic shard-private module shaped like an SM+L1 pair:
// wake-aware, busy while it holds work, pushing downstream traffic in
// PreTick, scheduling completion events through its Context, and notifying
// a shared collector through Defer. All its behavior is a deterministic
// function of (id, tick count), so serial and sharded runs must produce
// identical histories.
type shardSM struct {
	name    string
	id      int
	ctx     Context
	wake    func()
	work    int
	budget  int  // self-rescheduling allowance, bounds the run
	pending int  // downstream pushes emitted at the next PreTick
	relaxed bool // epoch mode: PreTick pushes must escape via Defer
	down    *wakeTicker
	coll    *wakeTicker
	ticks   int
	tickLog []uint64
	sibling *shardSM // same-shard neighbor woken directly during ticks
}

func (s *shardSM) Name() string    { return s.name }
func (s *shardSM) Kind() ModelKind { return CycleAccurate }

// Busy includes undrained downstream pushes, per the PreTicker contract:
// a module holding work for its next PreTick must stay active so the
// pre-phase visits it (real cache models are Busy while their miss
// queues are non-empty for the same reason).
func (s *shardSM) Busy() bool          { return s.work > 0 || s.pending > 0 }
func (s *shardSM) SetWake(wake func()) { s.wake = wake }

func (s *shardSM) give(n int) {
	s.work += n
	if s.wake != nil {
		s.wake()
	}
}

func (s *shardSM) PreTick(cycle uint64) {
	if s.pending == 0 {
		return
	}
	n := s.pending
	s.pending = 0
	if s.relaxed {
		// In relaxed mode (k > 1) PreTick runs on the shard goroutine, so
		// a push into the shared downstream must escape through a
		// shard-safe path — Defer here, standing in for the shard-private
		// boundary ports a real relaxed assembly inserts (see
		// internal/sim's epoch boundary).
		s.ctx.Defer(func() { s.down.give(n) })
		return
	}
	s.down.give(n)
}

func (s *shardSM) Tick(cycle uint64) {
	s.ticks++
	s.tickLog = append(s.tickLog, cycle)
	if s.work > 0 {
		s.work--
	}
	switch s.ticks % 4 {
	case 0:
		if s.budget > 0 {
			s.budget--
			// Completion-event path (an LDST latency, an analytical ALU).
			s.ctx.Schedule(uint64(2+s.id%3), func() { s.give(1) })
		}
	case 1:
		// Cross-shard notification path (block completion): must escape
		// through Defer, applied at the barrier.
		s.ctx.Defer(func() { s.coll.give(1) })
	case 2:
		// Downstream traffic, drained at the next cycle's pre-phase.
		s.pending++
	case 3:
		if s.sibling != nil {
			// Same-shard wake (an SM waking its own L1).
			s.sibling.give(1)
		}
	}
}

// parallelFixture wires nSMs shardSMs between a serial collector (first
// registration, like the block scheduler) and a serial downstream (last,
// like the NoC). nShards == 0 is the plain-Register serial engine; any
// other count goes through SetParallel/RegisterSharded. sibStep sets the
// sibling-wake wiring (sm[i] wakes sm[i+sibStep]); a serial baseline and a
// sharded run must be built with the SAME sibStep so they model the same
// system, and a sharded run needs sibStep to be a multiple of nShards so
// siblings share a shard (direct wakes are only legal within a shard).
type parallelFixture struct {
	e    *Engine
	coll *wakeTicker
	down *wakeTicker
	sms  []*shardSM
}

func newParallelFixture(nSMs, nShards, sibStep int) *parallelFixture {
	e := New()
	f := &parallelFixture{e: e}
	f.coll = &wakeTicker{name: "collector"}
	f.down = &wakeTicker{name: "downstream"}
	if nShards > 0 {
		e.SetParallel(nShards)
		// Keep the staged worker path under test even when the host has a
		// single proc (where an exact run would otherwise tick serially).
		e.forceWorkers = true
	}
	e.Register(f.coll)
	for i := 0; i < nSMs; i++ {
		sm := &shardSM{
			name:   fmt.Sprintf("sm%d", i),
			id:     i,
			work:   3 + i%4,
			budget: 8,
			down:   f.down,
			coll:   f.coll,
		}
		if nShards > 0 {
			sm.ctx = e.ShardContext(i % nShards)
		} else {
			sm.ctx = e
		}
		f.sms = append(f.sms, sm)
	}
	for i := 0; i+sibStep < nSMs; i++ {
		f.sms[i].sibling = f.sms[i+sibStep]
	}
	for i, sm := range f.sms {
		if nShards > 0 {
			e.RegisterSharded(sm, i%nShards)
		} else {
			e.Register(sm)
		}
	}
	e.Register(f.down)
	return f
}

// relax switches the fixture into relaxed-epoch mode: SetEpoch(k) on the
// engine, plus the SMs route their PreTick pushes through Defer — the
// fixture analog of the shard-private boundary ports a relaxed assembly
// must give its sharded modules (SetEpoch's documented contract).
func (f *parallelFixture) relax(k int) {
	f.e.SetEpoch(k)
	for _, sm := range f.sms {
		sm.relaxed = true
	}
}

func (f *parallelFixture) run(t *testing.T, horizon uint64) {
	t.Helper()
	done := false
	f.e.Schedule(horizon, func() { done = true })
	if _, err := f.e.Run(func() bool { return done }, 0); err != nil {
		t.Fatal(err)
	}
}

// history flattens the run into a deterministic comparable form.
func (f *parallelFixture) history() string {
	out := fmt.Sprintf("cycle=%d ticked=%d events=%d coll=%v down=%v\n",
		f.e.Cycle(), f.e.TickedCycles(), f.e.FiredEvents(), f.coll.tickLog, f.down.tickLog)
	for _, sm := range f.sms {
		out += fmt.Sprintf("%s: %v\n", sm.name, sm.tickLog)
	}
	return out
}

// TestParallelMatchesSerial: the sharded engine must reproduce the serial
// engine's execution exactly — every module's per-cycle tick history, the
// event count, and the final cycle — at several shard counts, including
// counts that do not divide the module count evenly.
func TestParallelMatchesSerial(t *testing.T) {
	const nSMs = 8
	for _, nShards := range []int{2, 3, 4, 8} {
		serial := newParallelFixture(nSMs, 0, nShards)
		serial.run(t, 400)
		want := serial.history()
		f := newParallelFixture(nSMs, nShards, nShards)
		f.run(t, 400)
		if got := f.history(); got != want {
			t.Errorf("shards=%d history diverged from serial:\n--- serial ---\n%s--- shards=%d ---\n%s",
				nShards, want, nShards, got)
		}
	}
}

// TestParallelWakeDeferral is the regression test for the wake-staging
// rule: cross-shard notifications issued during a parallel shard tick must
// be deferred to the barrier, not applied inline. Applying them inline
// (calling Engine.activate from worker goroutines) mutates the shared
// active list concurrently — this test fails under -race on that naive
// implementation, and nondeterministically corrupts the collector's tick
// history without it. Heavy shard count and a long horizon maximize
// concurrent barrier traffic.
func TestParallelWakeDeferral(t *testing.T) {
	serial := newParallelFixture(16, 0, 4)
	serial.run(t, 600)
	par := newParallelFixture(16, 4, 4)
	par.run(t, 600)
	if got, want := par.history(), serial.history(); got != want {
		t.Errorf("deferred wakes diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
	if len(par.coll.tickLog) == 0 {
		t.Fatal("collector never woken — deferral path not exercised")
	}
}

// TestShardPanicPropagates: a module panicking inside a worker must not
// kill the process from the worker goroutine; the coordinator re-raises it
// as a *ShardPanic on the simulation goroutine, where the runner's panic
// isolation can catch it.
func TestShardPanicPropagates(t *testing.T) {
	e := New()
	e.SetParallel(2)
	e.forceWorkers = true
	e.Register(&wakeTicker{name: "head"})
	boom := &wakeTicker{name: "boom", work: 10}
	boom.onTick = func(cycle uint64) {
		if boom.ticks == 3 {
			panic("injected fault")
		}
	}
	other := &wakeTicker{name: "other", work: 50}
	e.RegisterSharded(boom, 0)
	e.RegisterSharded(other, 1)

	defer func() {
		r := recover()
		sp, ok := r.(*ShardPanic)
		if !ok {
			t.Fatalf("recovered %v (%T), want *ShardPanic", r, r)
		}
		if sp.Shard != 0 {
			t.Errorf("ShardPanic.Shard = %d, want 0", sp.Shard)
		}
		if sp.Value != "injected fault" {
			t.Errorf("ShardPanic.Value = %v, want injected fault", sp.Value)
		}
		if len(sp.Stack) == 0 {
			t.Error("ShardPanic.Stack empty")
		}
		if sp.Error() == "" {
			t.Error("ShardPanic.Error() empty")
		}
	}()
	done := false
	e.Schedule(100, func() { done = true })
	_, _ = e.Run(func() bool { return done }, 0)
	t.Fatal("run completed despite injected panic")
}

// TestShardLayoutValidation: a serial ticker registered inside the sharded
// registration range breaks the head/segment/tail split; RunCtx must
// reject the assembly with a clear error instead of misticking it.
func TestShardLayoutValidation(t *testing.T) {
	e := New()
	e.SetParallel(2)
	e.RegisterSharded(&wakeTicker{name: "a", work: 5}, 0)
	e.Register(&wakeTicker{name: "interloper", work: 5})
	e.RegisterSharded(&wakeTicker{name: "b", work: 5}, 1)
	done := false
	e.Schedule(10, func() { done = true })
	_, err := e.Run(func() bool { return done }, 0)
	if err == nil {
		t.Fatal("Run accepted a serial ticker inside the sharded range")
	}
	var sp *ShardPanic
	if errors.As(err, &sp) {
		t.Fatalf("layout violation surfaced as a panic, want a plain error: %v", err)
	}
}

// TestRegisterShardedValidation: a shard index out of range is a
// programming error caught at registration.
func TestRegisterShardedValidation(t *testing.T) {
	e := New()
	e.SetParallel(2)
	defer func() {
		if recover() == nil {
			t.Error("shard out of range did not panic")
		}
	}()
	e.RegisterSharded(&wakeTicker{name: "x"}, 2)
}

// TestParallelSameCycleWakeVisibility pins the within-shard visibility
// rule to the serial engine's: a shard entry woken by an earlier-indexed
// same-shard entry ticks the same cycle; the reverse direction ticks the
// next cycle.
func TestParallelSameCycleWakeVisibility(t *testing.T) {
	build := func(nShards int) (up, down *wakeTicker, run func(t *testing.T)) {
		e := New()
		if nShards > 1 {
			e.SetParallel(nShards)
			e.forceWorkers = true
		}
		e.Register(&wakeTicker{name: "head"})
		up = &wakeTicker{name: "up"}
		down = &wakeTicker{name: "down"}
		// Keep the sibling shard busy so the worker path engages.
		busy := &wakeTicker{name: "busy", work: 40}
		const fireAt = 20
		up.onTick = func(cycle uint64) {
			if cycle == fireAt {
				down.give(1)
			}
		}
		down.onTick = func(cycle uint64) {
			if cycle == fireAt+2 {
				up.give(1)
			}
		}
		if nShards > 1 {
			e.RegisterSharded(up, 0)   // idx 1, shard 0
			e.RegisterSharded(busy, 1) // idx 2, shard 1
			e.RegisterSharded(down, 0) // idx 3, shard 0
		} else {
			e.Register(up)
			e.Register(busy)
			e.Register(down)
		}
		run = func(t *testing.T) {
			t.Helper()
			e.Schedule(fireAt, func() { up.give(1) })
			e.Schedule(fireAt+2, func() { down.give(1) })
			done := false
			e.Schedule(fireAt+10, func() { done = true })
			if _, err := e.Run(func() bool { return done }, 0); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for _, nShards := range []int{0, 2} {
		up, down, run := build(nShards)
		run(t)
		if !containsCycle(down.tickLog, 20) {
			t.Errorf("shards=%d: down not ticked same cycle as its upstream wake; log=%v", nShards, down.tickLog)
		}
		if containsCycle(up.tickLog, 22) {
			t.Errorf("shards=%d: up ticked the same cycle a later-indexed entry woke it; log=%v", nShards, up.tickLog)
		}
		if !containsCycle(up.tickLog, 23) {
			t.Errorf("shards=%d: up not ticked the cycle after its wake; log=%v", nShards, up.tickLog)
		}
	}
}
