package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"swiftsim/internal/mem"
)

// newMSHR builds a table of its own, as no cache class does: its buckets,
// entry slabs and fill results are allocated for it alone.
func newMSHR(entries, maxMerge int) mshrTable {
	return newMSHRIn(entries, maxMerge, make([]*mshrEntry, mshrBuckets(entries)), nil, nil)
}

// refMSHR is the MSHR as a Go map of line address to entry, as the table
// was before its chained hash: the oracle of TestMSHRMatchesReference.
type refMSHR struct {
	entries            map[uint64]*refEntry
	capacity, maxMerge int
}

type refEntry struct {
	pending uint32
	waiters []mshrWaiter
	merged  int // requests ever attached, released waiters included
}

func (m *refMSHR) add(lineAddr uint64, sector uint, req *mem.Request) mshrOutcome {
	if e, ok := m.entries[lineAddr]; ok {
		if e.merged >= m.maxMerge {
			return mshrStall
		}
		e.merged++
		e.waiters = append(e.waiters, mshrWaiter{req: req, sector: sector})
		if e.pending&(1<<sector) != 0 {
			return mshrMerged
		}
		e.pending |= 1 << sector
		return mshrNewSector
	}
	if len(m.entries) >= m.capacity {
		return mshrStall
	}
	m.entries[lineAddr] = &refEntry{pending: 1 << sector, waiters: []mshrWaiter{{req: req, sector: sector}}, merged: 1}
	return mshrNewEntry
}

func (m *refMSHR) fill(lineAddr uint64, sector uint) []*mem.Request {
	e, ok := m.entries[lineAddr]
	if !ok {
		return nil
	}
	var done []*mem.Request
	var remaining []mshrWaiter
	for _, w := range e.waiters {
		if w.sector == sector {
			done = append(done, w.req)
		} else {
			remaining = append(remaining, w)
		}
	}
	e.waiters = remaining
	e.pending &^= 1 << sector
	if e.pending == 0 {
		delete(m.entries, lineAddr)
	}
	return done
}

// TestMSHRMatchesReference replays seeded random add and fill streams into
// the table and into the map-based reference: merges, new sectors,
// capacity and merge-limit stalls, fills of unknown lines and of sectors
// not pending, under merge limits the entries hold inline and larger ones.
// After every operation the outcome, the waiters a fill releases, in order,
// and used() must be equal.
func TestMSHRMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity, maxMerge := 1+rng.Intn(40), 1+rng.Intn(8)
		if seed > 50 {
			maxMerge += mshrInline // waiters beside the slab, not inline
		}
		m := newMSHR(capacity, maxMerge)
		ref := &refMSHR{entries: map[uint64]*refEntry{}, capacity: capacity, maxMerge: maxMerge}
		// Lines drawn from a few times the capacity, some sharing their low
		// bits, so chains form and the table fills.
		lines := 1 + rng.Intn(3*capacity)
		stride := uint64(1) << rng.Intn(12)
		stalls := 0
		for op := 0; op < 5000; op++ {
			line := uint64(rng.Intn(lines)) * stride
			sector := uint(rng.Intn(4))
			if rng.Intn(3) != 0 {
				r := &mem.Request{Addr: uint64(op)}
				got, want := m.add(line, sector, r), ref.add(line, sector, r)
				if got != want {
					t.Fatalf("seed %d op %d: add(%d, %d) = %v, reference %v", seed, op, line, sector, got, want)
				}
				if got == mshrStall {
					stalls++
				}
			} else {
				got, want := m.fill(line, sector), ref.fill(line, sector)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d op %d: fill(%d, %d) released %v, reference %v", seed, op, line, sector, got, want)
				}
			}
			if m.used() != len(ref.entries) {
				t.Fatalf("seed %d op %d: used() = %d, reference %d", seed, op, m.used(), len(ref.entries))
			}
		}
		if stalls == 0 {
			t.Errorf("seed %d: the stream never stalled the table", seed)
		}
	}
}
