package smcore

import (
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/trace"
)

// Coalesce merges the per-lane byte addresses of a warp memory instruction
// into the minimal set of unique sector addresses (sectorBytes-aligned),
// preserving first-touch order. This is the memory coalescer every LD/ST
// model shares: the number of returned sectors is the instruction's
// transaction count.
func Coalesce(addrs []uint64, sectorBytes int) []uint64 {
	return CoalesceInto(make([]uint64, 0, 4), addrs, sectorBytes)
}

// CoalesceInto is Coalesce appending into dst[:0]'s backing array, so a
// per-instruction path reuses one buffer: the LD/ST unit's per pooled
// instruction, the hit-rate profiler's per kernel walk, the analytical
// memory model's on its stack.
func CoalesceInto(dst []uint64, addrs []uint64, sectorBytes int) []uint64 {
	mask := ^uint64(sectorBytes - 1)
	out := dst[:0]
	for _, a := range addrs {
		s := a & mask
		dup := false
		for _, o := range out {
			if o == s {
				dup = true
				break
			}
		}
		if !dup {
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
}

// LDSTUnit is the cycle-accurate Load/Store unit of one sub-core: it
// coalesces global accesses into sector requests, pushes them to the SM's
// L1 port with backpressure, models shared-memory bank conflicts, and
// acknowledges the Warp Scheduler when all transactions of an instruction
// complete.
type LDSTUnit struct {
	name        string
	eng         engine.Context
	l1          mem.Port
	smid        int
	sectorBytes int
	lanes       int // sectors pushed to L1 per cycle
	shmemLat    uint64
	queueCap    int

	queue mem.FIFO[*ldstInst]
	// free holds recycled instructions. TryIssue pops it and sectorDone
	// pushes it from completion events.
	free []*ldstInst
	// reqs is where the unit's sector requests come from: the run's pool
	// once the assembly has called SetRequestPool, the shared one before.
	reqs mem.Pool

	issued       *metrics.Counter
	transactions *metrics.Counter
	shConflicts  *metrics.Counter
	portStall    *metrics.Counter
}

// NewLDSTUnit builds a cycle-accurate LD/ST unit feeding the given L1 port.
// lanes is the LD/ST lane count (sector requests injected per cycle);
// queueCap bounds concurrently tracked memory instructions.
func NewLDSTUnit(name string, eng engine.Context, l1 mem.Port, smid, sectorBytes, lanes int, shmemLatency int, queueCap int, g *metrics.Gatherer) *LDSTUnit {
	if queueCap < 1 {
		queueCap = 8
	}
	return &LDSTUnit{
		name:         name,
		eng:          eng,
		l1:           l1,
		smid:         smid,
		sectorBytes:  sectorBytes,
		lanes:        lanes,
		shmemLat:     uint64(shmemLatency),
		queueCap:     queueCap,
		issued:       g.Counter(name + ".issued"),
		transactions: g.Counter(name + ".transactions"),
		shConflicts:  g.Counter(name + ".shmem_conflict"),
		portStall:    g.Counter(name + ".port_stall"),
	}
}

// SetRequestPool makes the unit draw its sector requests from p. The
// levels below take the requests they create from the pool of the request
// they serve, so the LD/ST units are the only modules that are told.
func (u *LDSTUnit) SetRequestPool(p mem.Pool) { u.reqs = p }

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

	if in.Op.IsSharedMem() {
		// Shared memory: latency plus serialization from bank
		// conflicts; no global traffic.
		deg := SharedBankConflicts(in.Addrs)
		if deg > 1 {
			u.shConflicts.Add(uint64(deg - 1))
		}
		u.eng.Schedule(u.shmemLat+uint64(4*(deg-1)), done)
		return true
	}

	var li *ldstInst
	if n := len(u.free); n > 0 {
		li = u.free[n-1]
		u.free = u.free[:n-1]
	} else {
		li = &ldstInst{u: u}
	}
	li.in = in
	li.done = done
	li.sectors = CoalesceInto(li.buf, in.Addrs, u.sectorBytes)
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
		// recycled. The coalesce buffer is kept for the next occupant.
		li.in = nil
		li.done = nil
		li.sectors = nil
		u.free = append(u.free, li)
		done()
	}
}
