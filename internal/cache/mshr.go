package cache

import "swiftsim/internal/mem"

// mshrWaiter is one request parked on an MSHR entry, waiting for its
// sector to arrive.
type mshrWaiter struct {
	req    *mem.Request
	sector uint
}

// mshrEntry tracks all outstanding misses to one cache line. Sectors are
// requested downstream individually; requests to an already-pending sector
// merge without new downstream traffic (Table II: "8 maximum merge / MSHR").
type mshrEntry struct {
	lineAddr       uint64
	sectorsPending uint32
	waiters        []mshrWaiter // capacity maxMerge, never regrown
	merged         int          // total requests attached, bounded by maxMerge
}

// mshrSlab is how many entries the table allocates at a time.
const mshrSlab = 16

// mshrTable is a fully associative miss-status holding register file keyed
// by line address. Entries are recycled: a released entry goes to the free
// list with its waiters array, and new entries come from there, or from a
// fresh slab while the table is still growing toward its working size
// (an RTX 2080 Ti assembly builds 68 L1 tables of 256 entries inside the
// timed section; most never hold more than a few misses at once).
type mshrTable struct {
	entries  map[uint64]*mshrEntry
	free     []*mshrEntry
	slabbed  int            // entries allocated so far, at most capacity
	filled   []*mem.Request // fill's result, valid until the next fill
	capacity int
	maxMerge int
}

func newMSHR(entries, maxMerge int) *mshrTable {
	return &mshrTable{
		entries:  make(map[uint64]*mshrEntry, entries),
		capacity: entries,
		maxMerge: maxMerge,
	}
}

// alloc returns an entry with no waiters. The caller has checked that the
// table is below capacity.
func (m *mshrTable) alloc() *mshrEntry {
	if len(m.free) == 0 {
		n := min(mshrSlab, m.capacity-m.slabbed)
		m.slabbed += n
		slab := make([]mshrEntry, n)
		waiters := make([]mshrWaiter, n*m.maxMerge)
		for i := range slab {
			slab[i].waiters = waiters[i*m.maxMerge : i*m.maxMerge : (i+1)*m.maxMerge]
			m.free = append(m.free, &slab[i])
		}
	}
	e := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	return e
}

// mshrOutcome reports how lookup/allocate resolved a miss.
type mshrOutcome int

const (
	// mshrStall: no entry available or merge limit reached; the request
	// must retry.
	mshrStall mshrOutcome = iota
	// mshrMerged: attached to an existing entry with the sector already
	// in flight; no downstream request needed.
	mshrMerged
	// mshrNewSector: attached to an existing entry but this sector must
	// be fetched downstream.
	mshrNewSector
	// mshrNewEntry: a fresh entry was allocated; the sector must be
	// fetched downstream.
	mshrNewEntry
)

// add registers a missing request. lineAddr and sector identify the target;
// the caller issues a downstream fetch for outcomes mshrNewSector and
// mshrNewEntry.
func (m *mshrTable) add(lineAddr uint64, sector uint, req *mem.Request) mshrOutcome {
	if e, ok := m.entries[lineAddr]; ok {
		if e.merged >= m.maxMerge {
			return mshrStall
		}
		e.merged++
		e.waiters = append(e.waiters, mshrWaiter{req: req, sector: sector})
		if e.sectorsPending&(1<<sector) != 0 {
			return mshrMerged
		}
		e.sectorsPending |= 1 << sector
		return mshrNewSector
	}
	if len(m.entries) >= m.capacity {
		return mshrStall
	}
	e := m.alloc()
	e.lineAddr = lineAddr
	e.sectorsPending = 1 << sector
	e.waiters = append(e.waiters[:0], mshrWaiter{req: req, sector: sector})
	e.merged = 1
	m.entries[lineAddr] = e
	return mshrNewEntry
}

// fill resolves the arrival of one sector. It returns the requests that
// were waiting on that sector, in a slice the table reuses on the next
// call, and releases the entry once all sectors have arrived.
func (m *mshrTable) fill(lineAddr uint64, sector uint) []*mem.Request {
	e, ok := m.entries[lineAddr]
	if !ok {
		return nil
	}
	done := m.filled[:0]
	remaining := e.waiters[:0]
	for _, w := range e.waiters {
		if w.sector == sector {
			done = append(done, w.req)
		} else {
			remaining = append(remaining, w)
		}
	}
	clear(e.waiters[len(remaining):])
	e.waiters = remaining
	m.filled = done
	e.sectorsPending &^= 1 << sector
	if e.sectorsPending == 0 {
		delete(m.entries, lineAddr)
		e.merged = 0
		m.free = append(m.free, e)
	}
	return done
}

// used returns the number of live entries.
func (m *mshrTable) used() int { return len(m.entries) }
