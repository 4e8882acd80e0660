package engine

import (
	"errors"
	"testing"

	"swiftsim/internal/mem"
	"swiftsim/internal/snap"
)

// retirer is a module that retires requests through two stages, as a DRAM
// partition does, and schedules more retirements from each one it sees: a
// seeded tree of them, on both sides of the horizon. What it schedules
// depends on the retiring request alone, and its one counter is its
// checkpoint state, so a restored retirer goes on exactly as the original.
type retirer struct {
	e    *Engine
	next uint64 // the next request's address
	left uint64 // retirements still to schedule
	log  []retired
}

type retired struct {
	addr, cycle uint64
	alt         bool
}

type (
	firstStage  retirer
	secondStage retirer
)

func (m *retirer) Name() string                           { return "retirer" }
func (m *retirer) Kind() ModelKind                        { return Analytical }
func (m *retirer) Stages() []mem.Stage                    { return []mem.Stage{(*firstStage)(m), (*secondStage)(m)} }
func (s *firstStage) Retire(r *mem.Request, _ mem.Level)  { (*retirer)(s).retire(r, false) }
func (s *secondStage) Retire(r *mem.Request, _ mem.Level) { (*retirer)(s).retire(r, true) }

func (m *retirer) Snap(c *snap.Codec) {
	c.U64(&m.next)
	c.U64(&m.left)
}

func (m *retirer) retire(r *mem.Request, alt bool) {
	m.log = append(m.log, retired{r.Addr, m.e.Cycle(), alt})
	for k := range r.Addr % 4 {
		m.spawn(storeDelays[(r.Addr*7+k)%uint64(len(storeDelays))])
	}
}

func (m *retirer) spawn(delay uint64) {
	if m.left == 0 {
		return
	}
	m.left--
	r := &mem.Request{Addr: m.next, Write: true, Size: 32}
	m.next++
	var s mem.Stage = (*firstStage)(m)
	if r.Addr%2 == 1 {
		s = (*secondStage)(m)
	}
	m.e.ScheduleRetirement(delay, r.Retirement(s, mem.LevelL2))
}

func newRetirer() *retirer {
	m := &retirer{e: New(), left: 2000}
	m.e.AddModule(m)
	return m
}

// TestRetirementsRoundTrip checkpoints an engine with hundreds of pending
// retirements, in the wheel and in the far heap, and restores it into a
// fresh one: the restored engine must fire the same retirements, at the same
// cycles, through the same stages, in the same order as the original going
// on, and end on the same counters.
func TestRetirementsRoundTrip(t *testing.T) {
	orig := newRetirer()
	for _, d := range storeDelays {
		orig.spawn(d)
	}
	if _, err := orig.e.Run(func() bool { return len(orig.log) >= 600 }, 0); err != nil {
		t.Fatal(err)
	}
	if n := orig.e.ev.near + len(orig.e.ev.far); n < 100 || len(orig.e.ev.far) == 0 {
		t.Fatalf("checkpoint holds %d pending events, %d far: want a full store", n, len(orig.e.ev.far))
	}
	data, err := snap.Save(orig.e.Snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Load(data, ParseState); err != nil {
		t.Fatalf("ParseState: %v", err)
	}
	rest := newRetirer()
	if err := snap.Load(data, rest.e.Snap); err != nil {
		t.Fatal(err)
	}
	fired := len(orig.log)
	done := func(m *retirer) func() bool { return func() bool { return m.e.ev.near+len(m.e.ev.far) == 0 } }
	if _, err := orig.e.Run(done(orig), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rest.e.Run(done(rest), 0); err != nil {
		t.Fatal(err)
	}
	want := orig.log[fired:]
	if len(rest.log) != len(want) {
		t.Fatalf("restored engine fired %d retirements, the original %d after the checkpoint", len(rest.log), len(want))
	}
	for i := range want {
		if rest.log[i] != want[i] {
			t.Fatalf("retirement %d after the checkpoint: restored %+v, original %+v", i, rest.log[i], want[i])
		}
	}
	if rest.e.Cycle() != orig.e.Cycle() || rest.e.seq != orig.e.seq || rest.e.TickedCycles() != orig.e.TickedCycles() ||
		rest.e.SkippedCycles() != orig.e.SkippedCycles() || rest.e.FiredEvents() != orig.e.FiredEvents() {
		t.Errorf("restored engine ends at cycle/seq/ticked/skipped/fired %d/%d/%d/%d/%d, the original at %d/%d/%d/%d/%d",
			rest.e.Cycle(), rest.e.seq, rest.e.TickedCycles(), rest.e.SkippedCycles(), rest.e.FiredEvents(),
			orig.e.Cycle(), orig.e.seq, orig.e.TickedCycles(), orig.e.SkippedCycles(), orig.e.FiredEvents())
	}
}

// TestSnapRefusesPendingClosures: a closure among pending retirements is not
// a value a checkpoint can hold, and neither is a request somebody waits for.
func TestSnapRefusesPendingClosures(t *testing.T) {
	m := newRetirer()
	m.spawn(5)
	m.e.Schedule(3, func() {})
	if _, err := snap.Save(m.e.Snap); !errors.Is(err, snap.ErrNotQuiescent) {
		t.Errorf("Snap with a pending closure: %v, want snap.ErrNotQuiescent", err)
	}
	m = newRetirer()
	r := &mem.Request{Done: func() {}}
	m.e.ScheduleRetirement(2, r.Retirement((*firstStage)(m), mem.LevelL2))
	if _, err := snap.Save(m.e.Snap); !errors.Is(err, snap.ErrNotQuiescent) {
		t.Errorf("Snap with an awaited request pending: %v, want snap.ErrNotQuiescent", err)
	}
}
