package smcore

import (
	"math/bits"

	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/trace"
)

// CoalesceInto merges the per-lane byte addresses of a warp memory
// instruction into the minimal set of unique sector addresses
// (sectorBytes-aligned), preserving first-touch order, appending into
// dst[:0]'s backing array. This is the memory coalescer every LD/ST model
// shares: the number of returned sectors is the instruction's transaction
// count. A per-instruction path reuses one buffer: the LD/ST unit's per
// pooled instruction, the hit-rate profiler's per kernel walk, the
// analytical memory model's on its stack.
//
// While an access has at most coalesceScan unique sectors a lane is checked
// against them by a scan; at the next one the remaining lanes go through an
// open-addressed set instead, so a scattered access costs O(lanes), not
// O(lanes²). A warp has at most 32 lanes, half the set's slots; an access
// with more keeps scanning.
func CoalesceInto(dst []uint64, addrs []uint64, sectorBytes int) []uint64 {
	mask := ^uint64(sectorBytes - 1)
	out := dst[:0]
	for i, a := range addrs {
		s := a & mask
		dup := false
		for _, o := range out {
			if o == s {
				dup = true
				break
			}
		}
		if !dup {
			if len(out) == coalesceScan && len(addrs) <= len(sectorSet{}.slots)/2 {
				return coalesceHashed(out, addrs[i:], mask)
			}
			out = append(out, s)
		}
	}
	return out
}

// coalesceScan is the unique-sector count up to which a scan is cheaper
// than hashing.
const coalesceScan = 8

// sectorSet is a 64-slot open-addressed set of sector addresses with linear
// probing. Occupancy is a bitmap, not a sentinel value, so every address, 0
// included, is storable at any sector size.
type sectorSet struct {
	used  uint64
	slots [64]uint64
}

// add inserts s and reports whether it was absent. The set must not be
// full.
func (set *sectorSet) add(s uint64) bool {
	i := (s * 0x9e3779b97f4a7c15) >> 58 // Fibonacci hash to 6 bits
	for set.used&(1<<i) != 0 {
		if set.slots[i] == s {
			return false
		}
		i = (i + 1) & 63
	}
	set.used |= 1 << i
	set.slots[i] = s
	return true
}

// coalesceHashed finishes a coalesce whose unique sectors so far are out,
// appending the new sectors of rest, the lanes not yet seen, in first-touch
// order.
func coalesceHashed(out, rest []uint64, mask uint64) []uint64 {
	var set sectorSet
	for _, s := range out {
		set.add(s)
	}
	for _, a := range rest {
		if s := a & mask; set.add(s) {
			out = append(out, s)
		}
	}
	return out
}

// SharedBankConflicts returns the conflict degree of a shared-memory
// access: the maximum number of active lanes hitting the same bank
// (32 four-byte banks). Degree 1 means conflict-free.
func SharedBankConflicts(addrs []uint64) int {
	var counts [32]int
	max := 0
	for _, a := range addrs {
		b := (a >> 2) & 31
		counts[b]++
		if counts[b] > max {
			max = counts[b]
		}
	}
	return max
}

// ldstInst is one memory instruction in flight in the LD/ST unit. It is the
// mem.Requester of its sector requests, so a completing sector finds its
// instruction without a closure per request.
type ldstInst struct {
	u       *LDSTUnit
	in      *trace.Inst
	done    func()
	sectors []uint64 // global sectors not yet accepted by the L1
	buf     []uint64 // full coalesce buffer backing sectors, reused on recycle
	waiting int      // accepted sectors whose responses are outstanding
	smid    int
	next    *ldstInst // the next free record
}

// ldstRecords is where the LD/ST units of one class take their instruction
// records: from a free list, else from a slab a chunk at a time, each with
// a coalesce buffer of one sector per lane from a second slab.
type ldstRecords struct {
	insts *mem.Slab[ldstInst]
	bufs  *mem.Slab[uint64]
	free  *ldstInst
}

const (
	// ldstChunk is how many instruction records an LD/ST class allocates
	// at a time.
	ldstChunk = 16
	// warpLanes bounds the sectors one warp instruction coalesces into.
	warpLanes = 32
)

func newLDSTRecords() *ldstRecords {
	return &ldstRecords{insts: mem.NewSlab[ldstInst](ldstChunk), bufs: mem.NewSlab[uint64](ldstChunk * warpLanes)}
}

// take returns a record with an empty coalesce buffer.
func (r *ldstRecords) take() *ldstInst {
	if li := r.free; li != nil {
		r.free = li.next
		li.next = nil
		return li
	}
	li := r.insts.One()
	li.buf = r.bufs.Take(warpLanes)[:0]
	return li
}

// put recycles li, keeping its coalesce buffer for the next occupant.
func (r *ldstRecords) put(li *ldstInst) {
	li.u, li.in, li.done, li.sectors = nil, nil, nil, nil
	li.next = r.free
	r.free = li
}

// LDSTUnit is the cycle-accurate Load/Store unit of one sub-core: it
// coalesces global accesses into sector requests, pushes them to the SM's
// L1 port with backpressure, models shared-memory bank conflicts, and
// acknowledges the Warp Scheduler when all transactions of an instruction
// complete.
type LDSTUnit struct {
	ldstClass
	eng         engine.Context
	l1          mem.Port
	smid        int
	sectorBytes int
	lanes       int // sectors pushed to L1 per cycle
	shmemLat    uint64
	queueCap    int

	queue mem.FIFO[*ldstInst]
}

// ldstClass is what every LD/ST unit of an assembly shares: its name, its
// counters, the records its instructions are tracked in and the run's
// request store its sector requests come from. TryIssue takes a record and
// sectorDone, from a completion event, puts it back.
type ldstClass struct {
	name         string
	issued       *metrics.Counter
	transactions *metrics.Counter
	shConflicts  *metrics.Counter
	portStall    *metrics.Counter
	records      *ldstRecords
	reqs         *mem.Store
}

func newLDSTClass(name string, g *metrics.Gatherer, reqs *mem.Store) ldstClass {
	return ldstClass{
		name:         name,
		issued:       g.Counter(name + ".issued"),
		transactions: g.Counter(name + ".transactions"),
		shConflicts:  g.Counter(name + ".shmem_conflict"),
		portStall:    g.Counter(name + ".port_stall"),
		records:      newLDSTRecords(),
		reqs:         reqs,
	}
}

// newLDSTUnit builds a cycle-accurate LD/ST unit of class c feeding the
// given L1 port, with a queue of its own, taking it from units and its
// queue's array, queueCap deep rounded up to a power of two, from queues.
// lanes is the LD/ST lane count (sector requests injected per cycle);
// queueCap bounds concurrently tracked memory instructions.
func newLDSTUnit(c ldstClass, eng engine.Context, l1 mem.Port, smid, sectorBytes, lanes int, shmemLatency int, queueCap int, units *mem.Slab[LDSTUnit], queues *mem.Slab[*ldstInst]) *LDSTUnit {
	if queueCap < 1 {
		queueCap = 8
	}
	u := units.One()
	*u = LDSTUnit{
		ldstClass:   c,
		eng:         eng,
		l1:          l1,
		smid:        smid,
		sectorBytes: sectorBytes,
		lanes:       lanes,
		shmemLat:    uint64(shmemLatency),
		queueCap:    queueCap,
		queue:       mem.FIFOOver(queues.Take(ringSize(queueCap))),
	}
	return u
}

// ringSize returns the least power of two at or above n.
func ringSize(n int) int {
	return 1 << bits.Len(uint(max(n, 1)-1))
}

// Name implements engine.Module.
func (u *LDSTUnit) Name() string { return u.name }

// Kind implements engine.Module.
func (u *LDSTUnit) Kind() engine.ModelKind { return engine.CycleAccurate }

// Busy implements Unit.
func (u *LDSTUnit) Busy() bool { return u.queue.Len() > 0 }

// TryIssue implements Unit.
func (u *LDSTUnit) TryIssue(cycle uint64, in *trace.Inst, done func()) bool {
	if u.queue.Len() >= u.queueCap {
		u.portStall.Inc()
		return false
	}
	u.issued.Inc()

	var lanes [trace.WarpSize]uint64
	addrs := in.Lanes(&lanes)
	if in.Op.IsSharedMem() {
		// Shared memory: latency plus serialization from bank
		// conflicts; no global traffic.
		deg := SharedBankConflicts(addrs)
		if deg > 1 {
			u.shConflicts.Add(uint64(deg - 1))
		}
		u.eng.Schedule(u.shmemLat+uint64(4*(deg-1)), done)
		return true
	}

	li := u.records.take()
	li.u = u
	li.in = in
	li.done = done
	li.sectors = CoalesceInto(li.buf, addrs, u.sectorBytes)
	li.buf = li.sectors
	li.smid = u.smid
	u.transactions.Add(uint64(len(li.sectors)))
	u.queue.Push(li)
	return true
}

// Tick implements Unit: inject up to lanes sector requests into the L1.
func (u *LDSTUnit) Tick(cycle uint64) {
	budget := u.lanes
	for budget > 0 && u.queue.Len() > 0 {
		li := u.queue.Front()
		if len(li.sectors) == 0 {
			// All sectors sent; the instruction stays tracked via
			// its outstanding requests, not the queue head.
			u.queue.Pop()
			continue
		}
		sent := false
		for budget > 0 && len(li.sectors) > 0 {
			r := u.reqs.Get()
			r.Addr = li.sectors[0]
			r.Write = li.in.Op == trace.OpStoreGlobal
			r.Size = u.sectorBytes
			r.PC = li.in.PC
			r.SMID = li.smid
			r.Owner = li
			li.waiting++
			if !u.l1.Accept(r) {
				li.waiting--
				u.portStall.Inc()
				mem.PutRequest(r)
				budget = 0
				break
			}
			li.sectors = li.sectors[1:]
			budget--
			sent = true
		}
		if len(li.sectors) == 0 && sent {
			u.queue.Pop()
		} else {
			break // L1 backpressure: keep instruction order
		}
	}
}

// RequestDone implements mem.Requester: one of the instruction's sectors
// has completed.
func (li *ldstInst) RequestDone(*mem.Request) { li.u.sectorDone(li) }

func (u *LDSTUnit) sectorDone(li *ldstInst) {
	li.waiting--
	if li.waiting == 0 && len(li.sectors) == 0 {
		done := li.done
		// Every sector has completed: the instruction can be
		// recycled.
		u.records.put(li)
		done()
	}
}
