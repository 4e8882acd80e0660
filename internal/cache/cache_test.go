package cache

import (
	"math/rand"
	"testing"
	"unsafe"

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

// pendingWaiters returns the total number of requests parked in m.
func (m *mshrTable) pendingWaiters() int {
	n := 0
	for _, e := range m.buckets {
		for ; e != nil; e = e.next {
			n += len(e.waiters)
		}
	}
	return n
}

// freeCount returns the length of m's free list.
func (m *mshrTable) freeCount() int {
	n := 0
	for e := m.free; e != nil; e = e.next {
		n++
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
	first := m.find(7)
	if got := m.fill(7, 0); len(got) != 2 {
		t.Fatalf("fill sector 0 released %d, want 2", len(got))
	}
	if m.freeCount() != 1 {
		t.Fatalf("entry with a pending sector on the free list (%d free)", m.freeCount())
	}
	m.fill(7, 2)
	if m.used() != 0 || m.freeCount() != 2 {
		t.Fatalf("used/free = %d/%d after the last fill, want 0/2", m.used(), m.freeCount())
	}

	r := &mem.Request{}
	if got := m.add(9, 1, r); got != mshrNewEntry {
		t.Fatalf("add after release = %v, want new entry", got)
	}
	e := m.find(9)
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

// TestHotStateSizes pins the host layout of the state every simulated
// sector touches (DESIGN.md §11.3): a line is 32 bytes, so a 4-way set (an
// L2 slice's) spans two 64-byte host cache lines and an 8-way set (an L1's)
// four; an MSHR entry's waiters lie inside the entry, so a slab is one
// allocation, for every preset's merge limits. A limit above the inline
// array gets one waiter array beside each slab.
func TestHotStateSizes(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 32 {
		t.Errorf("unsafe.Sizeof(line{}) = %d, want 32", got)
	}
	for _, g := range []config.GPU{config.RTX2080Ti(), config.RTX3060(), config.RTX3090()} {
		for _, c := range []config.Cache{g.L1, g.L2} {
			if c.MSHRMaxMerge > mshrInline {
				t.Errorf("%s: MSHRMaxMerge %d does not fit an entry's %d inline waiters", g.Name, c.MSHRMaxMerge, mshrInline)
			}
		}
	}
	for _, tc := range []struct{ maxMerge, allocs int }{{4, 4}, {8, 4}, {12, 5}} {
		var inside bool
		r := &mem.Request{}
		// A table's buckets and its two class slabs, then one slab chunk
		// for its first mshrSlab lines (and, past mshrInline, their
		// waiter array).
		allocs := testing.AllocsPerRun(10, func() {
			m := newMSHR(mshrSlab, tc.maxMerge)
			for la := uint64(0); la < mshrSlab; la++ {
				m.add(la, 0, r)
			}
			e := m.find(3)
			lo := uintptr(unsafe.Pointer(e))
			w := uintptr(unsafe.Pointer(unsafe.SliceData(e.waiters)))
			end := w + uintptr(cap(e.waiters))*unsafe.Sizeof(mshrWaiter{})
			inside = w >= lo && end <= lo+unsafe.Sizeof(*e)
		})
		if want := tc.maxMerge <= mshrInline; inside != want {
			t.Errorf("maxMerge %d: waiters inside their entry = %v, want %v", tc.maxMerge, inside, want)
		}
		if int(allocs) != tc.allocs {
			t.Errorf("maxMerge %d: a table and its first slab took %v allocations, want %d", tc.maxMerge, allocs, tc.allocs)
		}
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
