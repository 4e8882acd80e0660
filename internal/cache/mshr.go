package cache

import (
	"math/bits"

	"swiftsim/internal/mem"
)

// mshrWaiter is one request parked on an MSHR entry, waiting for its
// sector to arrive.
type mshrWaiter struct {
	req    *mem.Request
	sector uint
}

// mshrEntry tracks all outstanding misses to one cache line. Sectors are
// requested downstream individually; requests to an already-pending sector
// merge without new downstream traffic (Table II: "8 maximum merge / MSHR").
// The fields find reads come first, and the waiters follow in the entry
// itself, so a miss touches one slab allocation, not an entry and a
// separate waiter array.
type mshrEntry struct {
	lineAddr       uint64
	next           *mshrEntry // the next entry of the same bucket, or of the free list
	sectorsPending uint32
	merged         int32        // total requests attached, bounded by maxMerge
	waiters        []mshrWaiter // capacity maxMerge, never regrown
	inline         [mshrInline]mshrWaiter
}

// mshrInline is how many waiters an entry holds in itself: Table II's L1
// merge limit, which covers every preset (the L2's is 4). Under a larger
// limit each slab gets one waiter array beside it, and e.waiters points
// there instead; add and fill read e.waiters either way.
const mshrInline = 8

// mshrSlab is how many entries the table allocates at a time.
const mshrSlab = 16

// mshrTable is a fully associative miss-status holding register file keyed
// by line address: a chained hash over at least capacity buckets, so a
// chain averages under one entry. Entries are recycled: a released entry
// goes onto the free list (linked through next) with its waiters array, and
// new entries come from there, or from a fresh slab of mshrSlab, carved
// from the cache class's, while the table is still growing toward its
// working size (an RTX 2080 Ti assembly builds 68 L1 tables of 256 entries
// inside the timed section; most never hold more than a few misses at
// once). Nothing iterates the table, so the chains' order is never
// observable.
type mshrTable struct {
	buckets  []*mshrEntry // chain heads; a power of two of them
	shift    uint         // 64 - log2(len(buckets)): hash keeps the top bits
	live     int          // entries in the chains
	free     *mshrEntry
	slabbed  int            // entries allocated so far, at most capacity
	filled   []*mem.Request // fill's result, valid until the next fill
	capacity int
	maxMerge int
	// slabs and fills are where the table's entry slabs and fill's result
	// array come from: the cache class's.
	slabs *mem.Slab[mshrEntry]
	fills *mem.Slab[*mem.Request]
}

// mshrBuckets returns the bucket count of a table of the given capacity.
func mshrBuckets(entries int) int {
	n := 1
	for n < entries {
		n <<= 1
	}
	return n
}

// newMSHRIn builds a table over buckets, mshrBuckets(entries) nil heads,
// that takes its entries from slabs and fill's result array from fills.
func newMSHRIn(entries, maxMerge int, buckets []*mshrEntry, slabs *mem.Slab[mshrEntry], fills *mem.Slab[*mem.Request]) mshrTable {
	return mshrTable{
		buckets:  buckets,
		shift:    uint(64 - bits.TrailingZeros(uint(len(buckets)))),
		capacity: entries,
		maxMerge: maxMerge,
		slabs:    slabs,
		fills:    fills,
	}
}

// bucket returns the chain head of lineAddr (Fibonacci hashing: the
// multiply spreads lines that share their low bits, as one L2 slice's do).
func (m *mshrTable) bucket(lineAddr uint64) **mshrEntry {
	return &m.buckets[lineAddr*0x9E3779B97F4A7C15>>m.shift]
}

// find returns the live entry of lineAddr, or nil.
func (m *mshrTable) find(lineAddr uint64) *mshrEntry {
	for e := *m.bucket(lineAddr); e != nil; e = e.next {
		if e.lineAddr == lineAddr {
			return e
		}
	}
	return nil
}

// alloc returns an entry with no waiters. The caller has checked that the
// table is below capacity.
func (m *mshrTable) alloc() *mshrEntry {
	if m.free == nil {
		n := min(mshrSlab, m.capacity-m.slabbed)
		m.slabbed += n
		slab := m.slabs.Take(n)
		var spill []mshrWaiter
		if m.maxMerge > mshrInline {
			spill = make([]mshrWaiter, n*m.maxMerge)
		}
		for i := n - 1; i >= 0; i-- {
			e := &slab[i]
			if spill == nil {
				e.waiters = e.inline[:0:m.maxMerge]
			} else {
				e.waiters = spill[i*m.maxMerge : i*m.maxMerge : (i+1)*m.maxMerge]
			}
			e.next = m.free
			m.free = e
		}
	}
	e := m.free
	m.free = e.next
	e.next = nil
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
	if e := m.find(lineAddr); e != nil {
		if int(e.merged) >= m.maxMerge {
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
	if m.live >= m.capacity {
		return mshrStall
	}
	e := m.alloc()
	e.lineAddr = lineAddr
	e.sectorsPending = 1 << sector
	e.waiters = append(e.waiters[:0], mshrWaiter{req: req, sector: sector})
	e.merged = 1
	head := m.bucket(lineAddr)
	e.next = *head
	*head = e
	m.live++
	return mshrNewEntry
}

// fill resolves the arrival of one sector. It returns the requests that
// were waiting on that sector, in a slice the table reuses on the next
// call, and releases the entry once all sectors have arrived.
func (m *mshrTable) fill(lineAddr uint64, sector uint) []*mem.Request {
	link := m.bucket(lineAddr)
	for *link != nil && (*link).lineAddr != lineAddr {
		link = &(*link).next
	}
	e := *link
	if e == nil {
		return nil
	}
	if m.filled == nil {
		m.filled = m.fills.Take(m.maxMerge)
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
		*link = e.next
		e.next = m.free
		e.merged = 0
		m.live--
		m.free = e
	}
	return done
}

// used returns the number of live entries.
func (m *mshrTable) used() int { return m.live }
