package cache

import (
	"math/rand"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/mem"
)

func smallCache() config.Cache {
	return config.Cache{
		Sets: 4, Ways: 2, LineBytes: 128, SectorBytes: 32, Banks: 2,
		MSHREntries: 4, MSHRMaxMerge: 2, HitLatency: 4,
		Replacement: config.LRU, Throughput: 1,
	}
}

func TestFunctionalHitAfterMiss(t *testing.T) {
	f := NewFunctional(smallCache())
	if f.Access(0x1000, false) {
		t.Fatal("cold access hit")
	}
	if !f.Access(0x1000, false) {
		t.Fatal("second access missed")
	}
	if f.Accesses != 2 || f.Hits != 1 {
		t.Errorf("accesses/hits = %d/%d, want 2/1", f.Accesses, f.Hits)
	}
	if got := f.HitRate(); got != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", got)
	}
}

func TestFunctionalSectorGranularity(t *testing.T) {
	f := NewFunctional(smallCache())
	f.Access(0x1000, false) // sector 0 of line
	if f.Access(0x1020, false) {
		t.Fatal("different sector of same line must miss (sectored cache)")
	}
	if !f.Access(0x1020, false) {
		t.Fatal("sector should now be resident")
	}
	if !f.Access(0x1000, false) {
		t.Fatal("first sector must remain resident")
	}
}

func TestFunctionalEviction(t *testing.T) {
	cfg := smallCache() // 4 sets × 2 ways
	f := NewFunctional(cfg)
	// Three lines mapping to the same set (stride = sets*lineBytes).
	stride := uint64(cfg.Sets * cfg.LineBytes)
	f.Access(0, false)
	f.Access(stride, false)
	f.Access(2*stride, false) // evicts line 0 under LRU
	if f.Access(0, false) {
		t.Fatal("evicted line reported hit")
	}
}

func TestLRUvsFIFO(t *testing.T) {
	// Access pattern where LRU and FIFO choose different victims:
	// fill A, B; touch A; insert C. LRU evicts B, FIFO evicts A.
	run := func(rep config.Replacement) (aHit bool) {
		cfg := smallCache()
		cfg.Replacement = rep
		f := NewFunctional(cfg)
		stride := uint64(cfg.Sets * cfg.LineBytes)
		f.Access(0, false)        // A
		f.Access(stride, false)   // B
		f.Access(0, false)        // touch A
		f.Access(2*stride, false) // C evicts
		return f.Access(0, false)
	}
	if !run(config.LRU) {
		t.Error("LRU: A must survive (B was least recently used)")
	}
	if run(config.FIFO) {
		t.Error("FIFO: A must be evicted (oldest fill)")
	}
}

func TestRandomPolicyDeterministic(t *testing.T) {
	run := func() []bool {
		cfg := smallCache()
		cfg.Replacement = config.Random
		f := NewFunctional(cfg)
		r := rand.New(rand.NewSource(7))
		var outcomes []bool
		for i := 0; i < 200; i++ {
			outcomes = append(outcomes, f.Access(uint64(r.Intn(64))*32, false))
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random replacement not deterministic at access %d", i)
		}
	}
}

func TestFunctionalReset(t *testing.T) {
	f := NewFunctional(smallCache())
	f.Access(0, false)
	f.Reset()
	if f.Accesses != 0 || f.Hits != 0 {
		t.Fatal("Reset did not clear stats")
	}
	if f.Access(0, false) {
		t.Fatal("Reset did not clear tags")
	}
}

// pendingWaiters returns the total number of requests parked in m.
func (m *mshrTable) pendingWaiters() int {
	n := 0
	for _, e := range m.entries {
		n += len(e.waiters)
	}
	return n
}

func TestMSHRMergeAndFill(t *testing.T) {
	m := newMSHR(2, 4)
	r1 := &mem.Request{Addr: 0}
	r2 := &mem.Request{Addr: 0}
	r3 := &mem.Request{Addr: 32}
	if got := m.add(0, 0, r1); got != mshrNewEntry {
		t.Fatalf("first add = %v, want new entry", got)
	}
	if got := m.add(0, 0, r2); got != mshrMerged {
		t.Fatalf("same-sector add = %v, want merged", got)
	}
	if got := m.add(0, 1, r3); got != mshrNewSector {
		t.Fatalf("new-sector add = %v, want new sector", got)
	}
	if m.used() != 1 || m.pendingWaiters() != 3 {
		t.Fatalf("used/waiters = %d/%d, want 1/3", m.used(), m.pendingWaiters())
	}
	done := m.fill(0, 0)
	if len(done) != 2 {
		t.Fatalf("fill sector 0 released %d, want 2", len(done))
	}
	if m.used() != 1 {
		t.Fatal("entry removed while sector 1 still pending")
	}
	done = m.fill(0, 1)
	if len(done) != 1 || done[0] != r3 {
		t.Fatalf("fill sector 1 released %v", done)
	}
	if m.used() != 0 {
		t.Fatal("entry not removed after all sectors filled")
	}
}

// TestMSHRRecyclesEntries: an entry released by its last fill is the one
// the next miss gets, and it starts clean.
func TestMSHRRecyclesEntries(t *testing.T) {
	m := newMSHR(2, 4)
	m.add(7, 0, &mem.Request{})
	m.add(7, 0, &mem.Request{})
	m.add(7, 2, &mem.Request{})
	first := m.entries[7]
	if got := m.fill(7, 0); len(got) != 2 {
		t.Fatalf("fill sector 0 released %d, want 2", len(got))
	}
	if len(m.free) != 1 {
		t.Fatalf("entry with a pending sector on the free list (%d free)", len(m.free))
	}
	m.fill(7, 2)
	if m.used() != 0 || len(m.free) != 2 {
		t.Fatalf("used/free = %d/%d after the last fill, want 0/2", m.used(), len(m.free))
	}

	r := &mem.Request{}
	if got := m.add(9, 1, r); got != mshrNewEntry {
		t.Fatalf("add after release = %v, want new entry", got)
	}
	e := m.entries[9]
	if e != first {
		t.Error("released entry was not reused")
	}
	if e.lineAddr != 9 || e.sectorsPending != 1<<1 || e.merged != 1 ||
		len(e.waiters) != 1 || e.waiters[0] != (mshrWaiter{req: r, sector: 1}) {
		t.Errorf("recycled entry carries old state: %+v", e)
	}
	if cap(e.waiters) != 4 {
		t.Errorf("waiters capacity = %d, want maxMerge 4", cap(e.waiters))
	}
	// Between the two: released, it held nothing.
	m.fill(9, 1)
	if e.sectorsPending != 0 || e.merged != 0 || len(e.waiters) != 0 {
		t.Errorf("released entry not empty: %+v", e)
	}
	for _, w := range e.waiters[:cap(e.waiters)] {
		if w.req != nil {
			t.Error("released entry retains a request pointer")
		}
	}
	// The table never allocates more entries than its capacity.
	m.add(1, 0, &mem.Request{})
	m.add(2, 0, &mem.Request{})
	if m.slabbed != 2 || m.add(3, 0, &mem.Request{}) != mshrStall {
		t.Errorf("slabbed = %d entries for capacity 2, or third line not stalled", m.slabbed)
	}
}

func TestMSHRStalls(t *testing.T) {
	m := newMSHR(1, 2)
	m.add(0, 0, &mem.Request{})
	m.add(0, 0, &mem.Request{})
	if got := m.add(0, 0, &mem.Request{}); got != mshrStall {
		t.Fatalf("merge beyond limit = %v, want stall", got)
	}
	if got := m.add(1, 0, &mem.Request{}); got != mshrStall {
		t.Fatalf("allocation beyond capacity = %v, want stall", got)
	}
}

func TestMSHRFillUnknownLine(t *testing.T) {
	m := newMSHR(1, 1)
	if got := m.fill(42, 0); got != nil {
		t.Fatalf("fill of unknown line returned %v", got)
	}
}
