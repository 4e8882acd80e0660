package engine

import (
	"fmt"
	"strings"
	"testing"
)

// shardSM is a synthetic segment module shaped like an SM+L1 pair:
// wake-aware, busy while it holds work, pushing downstream traffic at the
// start of its Tick, scheduling completion events through its Context, and
// notifying a serial collector through Defer. All its behavior is a deterministic
// function of (id, tick count), so a plain-Register run and an exact run
// through RegisterSharded must produce identical histories.
type shardSM struct {
	name    string
	id      int
	ctx     Context
	wake    func()
	work    int
	budget  int  // self-rescheduling allowance, bounds the run
	pending int  // downstream pushes emitted at the next Tick
	relaxed bool // epoch mode: downstream pushes must escape via Defer
	down    *wakeTicker
	coll    *wakeTicker
	ticks   int
	tickLog []uint64
	sibling *shardSM // segment neighbor woken directly during ticks
}

func (s *shardSM) Name() string    { return s.name }
func (s *shardSM) Kind() ModelKind { return CycleAccurate }

// Busy includes undrained downstream pushes: a module holding work for its
// next Tick must stay active (real cache models are Busy while their
// miss queues are non-empty for the same reason).
func (s *shardSM) Busy() bool          { return s.work > 0 || s.pending > 0 }
func (s *shardSM) SetWake(wake func()) { s.wake = wake }

func (s *shardSM) give(n int) {
	s.work += n
	if s.wake != nil {
		s.wake()
	}
}

// drain pushes the traffic the previous tick queued, as a cache drains its
// miss queue at the start of its Tick.
func (s *shardSM) drain() {
	if s.pending == 0 {
		return
	}
	n := s.pending
	s.pending = 0
	if s.relaxed {
		// In relaxed mode (k > 1) Tick runs inside the segment pass, so
		// a push into the serial downstream must escape through Defer —
		// standing in for the segment-private boundary ports a real
		// relaxed assembly inserts (see internal/sim's epoch boundary).
		s.ctx.Defer(func() { s.down.give(n) })
		return
	}
	s.down.give(n)
}

func (s *shardSM) Tick(cycle uint64) {
	s.drain()
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
		// Notification to a serial module (block completion): must escape
		// through Defer, applied at the fold.
		s.ctx.Defer(func() { s.coll.give(1) })
	case 2:
		// Downstream traffic, drained at the start of the next tick.
		s.pending++
	case 3:
		if s.sibling != nil {
			// Wake inside the segment (an SM waking its own L1).
			s.sibling.give(1)
		}
	}
}

// parallelFixture wires nSMs shardSMs between a serial collector (first
// registration, like the block scheduler) and a serial downstream (last,
// like the NoC). nShards == 0 is the plain-Register engine; any other count
// goes through SetParallel/RegisterSharded, spreading the SMs over that
// many shard indices, all of which name the one segment. sibStep sets the
// sibling-wake wiring (sm[i] wakes sm[i+sibStep]); runs that are compared
// must be built with the SAME sibStep so they model the same system.
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
// engine, plus the SMs route their downstream pushes through Defer — the
// fixture analog of the segment-private boundary ports a relaxed assembly
// must give its segment modules (SetEpoch's documented contract).
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

// TestParallelMatchesSerial: an exact run registered through
// RegisterSharded must reproduce the plain-Register engine's execution
// exactly — every module's per-cycle tick history, the event count, and the
// final cycle — at several shard counts, including counts that do not
// divide the module count evenly.
func TestParallelMatchesSerial(t *testing.T) {
	const nSMs, sibStep = 8, 2
	serial := newParallelFixture(nSMs, 0, sibStep)
	serial.run(t, 400)
	want := serial.history()
	for _, nShards := range []int{2, 3, 8} {
		f := newParallelFixture(nSMs, nShards, sibStep)
		f.run(t, 400)
		if got := f.history(); got != want {
			t.Errorf("shards=%d history diverged from serial:\n--- serial ---\n%s--- shards=%d ---\n%s",
				nShards, want, nShards, got)
		}
	}
}

// TestParallelWakeDeferral pins the staging rule of a relaxed pass: a
// notification a segment module sends to a serial module through Defer is
// held in the arena and released at the fold, with staging off and the
// engine's clock still at the epoch's first cycle — never applied inline,
// where it would change the active set under the pass.
func TestParallelWakeDeferral(t *testing.T) {
	const k = 8
	e := New()
	e.SetEpoch(k)
	coll := &wakeTicker{name: "collector"}
	e.Register(coll)
	sm := &wakeTicker{name: "sm", work: 3 * k}
	ctx := e.ShardContext(0)
	type release struct {
		local, at uint64
		staging   bool
	}
	var got []release
	sm.onTick = func(cycle uint64) {
		local := ctx.Cycle()
		ctx.Defer(func() {
			got = append(got, release{local, e.Cycle(), e.seg.staging})
			coll.give(1)
		})
	}
	e.RegisterSharded(sm, 0)
	done := false
	e.Schedule(4*k, func() { done = true })
	if _, err := e.Run(func() bool { return done }, 0); err != nil {
		t.Fatal(err)
	}
	if len(got) < 3*k {
		t.Fatalf("%d defers released, want at least %d", len(got), 3*k)
	}
	for i, r := range got {
		if r.staging {
			t.Errorf("defer %d ran with staging on", i)
		}
		if want := r.local - r.local%k; r.at != want {
			t.Errorf("defer %d, issued at local cycle %d, ran at engine cycle %d, want the epoch's first cycle %d", i, r.local, r.at, want)
		}
		if i > 0 && r.local < got[i-1].local {
			t.Errorf("defer %d released out of order: local cycle %d after %d", i, r.local, got[i-1].local)
		}
	}
	if len(coll.tickLog) == 0 {
		t.Fatal("collector never woken — deferral path not exercised")
	}
}

// panicRig builds a relaxed engine whose segment has two modules per shard
// index; the first module of shard panics at its atTick'th tick (0 = never).
func panicRig(nShards, shard, atTick int) (*Engine, func() bool) {
	e := New()
	e.SetParallel(nShards)
	e.SetEpoch(8)
	e.Register(&wakeTicker{name: "head"})
	for i := 0; i < nShards*2; i++ {
		w := &wakeTicker{name: fmt.Sprintf("w%d", i), work: 200}
		if i == shard {
			w.onTick = func(uint64) {
				if w.ticks == atTick {
					panic("injected fault")
				}
			}
		}
		e.RegisterSharded(w, i%nShards)
	}
	done := false
	e.Schedule(500, func() { done = true })
	return e, func() bool { return done }
}

// requireOwnPanic runs e and requires it to panic, on this goroutine, with
// the module's own value: no wrapper between a module and the runner's
// panic isolation.
func requireOwnPanic(t *testing.T, e *Engine, done func() bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != "injected fault" {
			t.Fatalf("recovered %v (%T), want the module's own panic value", r, r)
		}
	}()
	_, _ = e.Run(done, 0)
	t.Fatal("run completed despite injected panic")
}

// TestShardPanicPropagates: a module panicking inside a relaxed pass panics
// on the goroutine that called Run. The engine it happened in is dead; a
// fresh one in the same process is unaffected.
func TestShardPanicPropagates(t *testing.T) {
	e, done := panicRig(2, 0, 3)
	requireOwnPanic(t, e, done)
	e, done = panicRig(2, 0, 0)
	if _, err := e.Run(done, 0); err != nil {
		t.Fatalf("fresh engine after a panicked one: %v", err)
	}
}

// TestBarrierStressPanicInShard (named for the worker barrier it once
// stressed): the panic surfaces the same way wherever in the pass it
// happens — first local cycle or a later epoch, first segment entry or one
// behind entries that already ticked and staged.
func TestBarrierStressPanicInShard(t *testing.T) {
	for _, tc := range []struct{ shard, atTick int }{
		{0, 1}, {1, 7}, {2, 25}, {3, 2},
	} {
		t.Run(fmt.Sprintf("shard=%d/tick=%d", tc.shard, tc.atTick), func(t *testing.T) {
			e, done := panicRig(4, tc.shard, tc.atTick)
			requireOwnPanic(t, e, done)
		})
	}
}

// TestShardLayoutValidation: a serial ticker registered inside the
// segment's registration range breaks the head/segment/tail split; RunCtx
// must reject the assembly with a clear error instead of misticking it.
func TestShardLayoutValidation(t *testing.T) {
	e := New()
	e.SetParallel(2)
	e.RegisterSharded(&wakeTicker{name: "a", work: 5}, 0)
	e.Register(&wakeTicker{name: "interloper", work: 5})
	e.RegisterSharded(&wakeTicker{name: "b", work: 5}, 1)
	done := false
	e.Schedule(10, func() { done = true })
	_, err := e.Run(func() bool { return done }, 0)
	if err == nil || !strings.Contains(err.Error(), "interloper") {
		t.Fatalf("Run with a serial ticker inside the sharded range: err = %v, want an error naming it", err)
	}
}

// TestRegisterShardedValidation: a shard index out of range is a
// programming error, and RegisterSharded and ShardContext report it with
// the same named panic — after SetParallel(n) for indices outside [0, n),
// before it for anything but 0, which then behaves as Register and the
// engine itself.
func TestRegisterShardedValidation(t *testing.T) {
	for _, tc := range []struct {
		parallel int // SetParallel argument, -1 = not called
		shard    int
		ok       bool
	}{
		{2, 1, true}, {2, 2, false}, {2, -1, false}, {-1, 0, true}, {-1, 1, false},
		{0, 0, true}, {0, 1, false},
	} {
		calls := map[string]func(*Engine){
			"RegisterSharded": func(e *Engine) { e.RegisterSharded(&wakeTicker{name: "x"}, tc.shard) },
			"ShardContext":    func(e *Engine) { e.ShardContext(tc.shard) },
		}
		for name, call := range calls {
			e := New()
			if tc.parallel >= 0 {
				e.SetParallel(tc.parallel)
			}
			msg := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				call(e)
				return ""
			}()
			named := strings.Contains(msg, "engine: "+name) && strings.Contains(msg, "out of range")
			if tc.ok && msg != "" || !tc.ok && !named {
				t.Errorf("SetParallel(%d), %s(%d): panic %q, want ok=%v (the named out-of-range panic otherwise)",
					tc.parallel, name, tc.shard, msg, tc.ok)
			}
		}
	}
	// Before SetParallel, shard 0 is the engine: the ticker runs as under
	// Register and the context schedules straight into the event queue.
	e := New()
	w := &wakeTicker{name: "w", work: 2}
	e.RegisterSharded(w, 0)
	fired := false
	e.ShardContext(0).Schedule(5, func() { fired = true })
	if _, err := e.Run(func() bool { return fired }, 0); err != nil {
		t.Fatal(err)
	}
	if w.ticks == 0 || e.Cycle() != 5 {
		t.Errorf("ticks = %d, final cycle = %d; want the ticker ticked and the event fired at cycle 5", w.ticks, e.Cycle())
	}
}

// TestParallelSameCycleWakeVisibility pins the visibility rule inside a
// relaxed pass to the serial engine's: a segment entry woken by an
// earlier-indexed segment entry ticks the same local cycle; one woken by a
// later-indexed entry ticks the next. The wakes land mid-epoch, and the
// exact run of the same wiring must agree tick for tick.
func TestParallelSameCycleWakeVisibility(t *testing.T) {
	run := func(k int) (up, down *wakeTicker) {
		e := New()
		e.SetEpoch(k)
		e.Register(&wakeTicker{name: "head"})
		up = &wakeTicker{name: "up"}
		down = &wakeTicker{name: "down"}
		// Keeps the segment in back-to-back epochs [0,8), [8,16), [16,24)...
		busy := &wakeTicker{name: "busy", work: 40}
		busy.onTick = func(cycle uint64) {
			if cycle == 18 {
				up.give(1) // later index wakes earlier: up ticks at 19
			}
		}
		up.onTick = func(cycle uint64) {
			if cycle == 19 {
				down.give(1) // earlier index wakes later: down ticks at 19
			}
		}
		down.onTick = func(cycle uint64) {
			if cycle == 19 {
				up.give(1) // up already ticked at 19: its next tick is 20
			}
		}
		e.RegisterSharded(up, 0)   // idx 1
		e.RegisterSharded(busy, 0) // idx 2
		e.RegisterSharded(down, 0) // idx 3
		done := false
		e.Schedule(48, func() { done = true })
		if _, err := e.Run(func() bool { return done }, 0); err != nil {
			t.Fatal(err)
		}
		return up, down
	}
	for _, k := range []int{1, 8} {
		up, down := run(k)
		if want := []uint64{0, 19, 20}; fmt.Sprint(up.tickLog) != fmt.Sprint(want) {
			t.Errorf("k=%d: up ticked at %v, want %v (a later-indexed waker means the next cycle)", k, up.tickLog, want)
		}
		if want := []uint64{0, 19}; fmt.Sprint(down.tickLog) != fmt.Sprint(want) {
			t.Errorf("k=%d: down ticked at %v, want %v (an earlier-indexed waker means the same cycle)", k, down.tickLog, want)
		}
	}
}
