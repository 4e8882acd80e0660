// Package mem defines the fixed interface between memory-system modules:
// sector-granular requests with completion callbacks, and the backpressured
// Port every level (L1, NoC, L2 slice, DRAM partition) implements. Because
// all modules speak this one interface, any level can be swapped between a
// cycle-accurate module and an analytical model without touching its
// neighbours — the decoupling requirement of the paper's §III-B2.
package mem

import (
	"fmt"
	"math/bits"
	"sync"

	"swiftsim/internal/snap"
)

// Level identifies which level of the hierarchy serviced a request.
type Level uint8

const (
	// LevelNone means the request has not completed yet.
	LevelNone Level = iota
	// LevelL1 means the request hit in the L1 data cache.
	LevelL1
	// LevelL2 means the request hit in an L2 slice.
	LevelL2
	// LevelDRAM means the request was serviced by DRAM.
	LevelDRAM
)

// String returns a short name for the level.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelDRAM:
		return "DRAM"
	default:
		return "?"
	}
}

// Request is one sector-granular memory transaction flowing through the
// modeled hierarchy.
//
// # Ownership
//
// A request has one holder at a time. Its creator holds it until a Port
// accepts it; from then on the accepting module does, until it either
// hands the request to the next Port or completes it. Complete is the end
// of the request's life: it carries the request back over the
// interconnect hop it came in by (if one interposed with Via), notifies
// the creator (Owner, or Done for callers outside the module tree) and
// then, if the request came from a Pool, returns it there. So
// nobody frees a request explicitly, nobody touches one after calling
// Complete, and the notified creator must not keep the pointer past its
// callback. A request built with a literal (&Request{...}) never enters
// the pool and stays valid for as long as its creator keeps it.
//
// The continuation a request needs at each step is data on the request
// (Owner, the hop slot, the stage slot below) rather than a closure built
// per step, so the steady-state path allocates nothing. One slot of each
// kind is enough because a request crosses one interconnect hop and is
// accepted by one cache/DRAM level at a time: a level that misses sends a
// request of its own downstream and parks the original.
//
// A pool held through AcquirePool belongs to one simulation, which is one
// goroutine, and takes no lock; SharedPool is locked and may be used from
// any goroutine (see Pool). Everything else a module recycles (LD/ST
// instructions, MSHR entries, queue slots) lives on a free list private to
// that module, touched only by its simulation's goroutine, so the lists
// need no locks.
type Request struct {
	// Addr is the byte address, sector-aligned by the coalescer.
	Addr uint64
	// Size is the transaction size in bytes (one sector for cache
	// traffic).
	Size int
	// PC is the program counter of the originating instruction, used for
	// per-PC statistics and the analytical memory model.
	PC uint64
	// SMID is the originating SM, used for return routing and per-SM
	// counters.
	SMID int
	// Owner is the creating module, told once when the request completes.
	// Modules set it instead of Done: the interface value holds a pointer
	// the module already has, where Done would be a closure per request.
	// Nil for write-through and writeback traffic nobody waits on.
	Owner Requester
	// Done is the completion callback for callers that are not modules
	// (tests, the benchmark rigs); it is invoked once per Complete when
	// Owner is nil. It may be nil too.
	Done func()
	// T0 is the cycle the module that directly accepted this request took
	// it, recorded only when request-level tracing is on so the module can
	// emit a lifecycle span at completion. A request is accepted by exactly
	// one cache/DRAM level, so a single stamp suffices. Simulation
	// behaviour never reads it.
	T0 uint64

	// The hop slot: the interconnect the request entered the memory side
	// through and must return over, with (hopTag) its routing tag.
	hop Hop
	// The stage slot: the module that will retire the request when its
	// scheduled retirement (Retirement) fires, and (lvl) the level it
	// retires at.
	stage Stage

	// The one- and four-byte fields sit together at the end so the struct
	// stays in the 112-byte size class: the benchmark rigs and tests
	// allocate one literal per request.
	hopTag int32
	lvl    Level
	// home is the pool the request came from, plus one; zero marks a
	// literal.
	home uint8
	// Write distinguishes stores from loads.
	Write bool
	// ServicedBy records the level that ultimately supplied the data.
	ServicedBy Level
}

// Requester is a module that creates requests and is told when each one
// completes. r is the completed request, with ServicedBy set; it is
// recycled when RequestDone returns.
type Requester interface {
	RequestDone(r *Request)
}

// Hop is an interconnect that carries completed requests back to the side
// they were sent from. Return takes the request into the return network;
// the hop calls r.Deliver when the traversal is over. tag is whatever the
// hop passed to Via (the partition the request was routed to).
type Hop interface {
	Return(r *Request, tag int)
}

// Stage is a cache or memory level that completes requests after a
// latency. Retire runs at the scheduled cycle with the level passed to
// Retirement, and ends by calling r.Complete.
type Stage interface {
	Retire(r *Request, lvl Level)
}

// WantsReply reports whether anybody is waiting for r to complete. An
// interconnect carries only such requests back; the rest end their life
// at the level that consumes them.
func (r *Request) WantsReply() bool { return r.Owner != nil || r.Done != nil }

// Via records that r entered the memory side through h, so Complete sends
// it back the same way.
func (r *Request) Via(h Hop, tag int) { r.hop, r.hopTag = h, int32(tag) }

// Retirement names s as the stage that retires r at lvl and returns r, for
// the engine's ScheduleRetirement: the scheduled event is the request
// itself, a value a checkpoint can walk, not a closure.
func (r *Request) Retirement(s Stage, lvl Level) *Request {
	r.stage, r.lvl = s, lvl
	return r
}

// Retiring returns the stage and level Retirement named.
func (r *Request) Retiring() (Stage, Level) { return r.stage, r.lvl }

// Retire runs the retirement Retirement named; the engine calls it when the
// scheduled event fires.
func (r *Request) Retire() {
	s := r.stage
	r.stage = nil
	s.Retire(r, r.lvl)
}

// Complete marks the request serviced by lvl and ends its stay on the
// memory side: over the return network if it came in through a Hop,
// straight to Deliver otherwise. The caller must not use r afterwards.
func (r *Request) Complete(lvl Level) {
	if r.ServicedBy == LevelNone {
		r.ServicedBy = lvl
	}
	if h := r.hop; h != nil {
		r.hop = nil
		h.Return(r, int(r.hopTag))
		return
	}
	r.Deliver()
}

// Deliver notifies the request's creator and recycles the request if it
// is pooled. Modules call Complete; Deliver is for a Hop finishing the
// return traversal it started in Return.
func (r *Request) Deliver() {
	if r.Owner != nil {
		r.Owner.RequestDone(r)
	} else if r.Done != nil {
		r.Done()
	}
	PutRequest(r)
}

// Pool is a free list of Request structs for the L1/NoC/DRAM hot path,
// where the detailed configurations use one per sector transaction. A
// simulation run holds a pool of its own from AcquirePool to Release, so
// concurrent runs (a parallel sweep, the daemon's executors) do not contend
// and a run's allocations depend on that run and on the runs that held the
// pool before it, not on when the collector ran: a sync.Pool here made
// allocs_per_kinst of one workload differ by 4% between identical passes,
// because a collection between two jobs dropped the first job's requests.
// Released pools keep their requests (at most poolCap each) and the lowest
// free pool is handed out first, so back-to-back runs reuse one warm list.
//
// Only the shared pool is locked: concurrent callers use it side by side.
// A pool from AcquirePool has a single owner from acquire to Release, and
// that owner is one goroutine: sim.Run acquires it, simulates on the calling
// goroutine (a simulation has been one goroutine since the sharded engine
// went) and releases it on return, after the engine has stopped, so none of
// its requests completes later. Hand-over between two runs is ordered by
// poolsMu, which Release and the next AcquirePool both take. Get, Sibling,
// Complete and PutRequest on such a pool therefore take no lock, and must
// not be called from a second goroutine while it is held.
type Pool uint8

// SharedPool serves callers that hold no pool of their own (tests, rigs
// feeding literals into a cache) and runs beyond the numPools-th at once.
const SharedPool Pool = 0

const (
	numPools = 64
	// poolCap bounds the requests an idle pool retains (3.5 MiB).
	poolCap = 1 << 15
)

// freeList is one pool's storage.
type freeList struct {
	mu   sync.Mutex // taken for the shared pool only; see Pool
	free []*Request
	_    [32]byte // a cache line each
}

var (
	pools     [numPools]freeList
	poolsMu   sync.Mutex
	poolsBusy uint64 = 1 // bit p: pool p is held; the shared pool always is
)

// AcquirePool returns the lowest-numbered pool nobody holds, or SharedPool
// when all are held.
func AcquirePool() Pool {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	p := bits.TrailingZeros64(^poolsBusy)
	if p == numPools {
		return SharedPool
	}
	poolsBusy |= 1 << p
	return Pool(p)
}

// Release gives the pool up for the next AcquirePool. The holder must have
// stopped completing p's requests: one still in flight is simply never put
// back.
func (p Pool) Release() {
	if p == SharedPool {
		return
	}
	poolsMu.Lock()
	poolsBusy &^= 1 << p
	poolsMu.Unlock()
}

// Get returns a zeroed Request from the pool. Complete returns it.
func (p Pool) Get() *Request {
	l := &pools[p]
	if p != SharedPool {
		return l.take(p)
	}
	l.mu.Lock()
	r := l.take(p)
	l.mu.Unlock()
	return r
}

// take pops a recycled request of pool p, or makes one.
func (l *freeList) take(p Pool) *Request {
	if n := len(l.free); n > 0 {
		r := l.free[n-1]
		// A request still in flight when its run ends is never put back;
		// a stale slot would keep it, and through its hop and stage the
		// whole finished assembly, alive.
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return r
	}
	return &Request{home: uint8(p) + 1}
}

// put keeps r for the next take, up to poolCap.
func (l *freeList) put(r *Request) {
	if len(l.free) < poolCap {
		l.free = append(l.free, r)
	}
}

// Sibling returns a zeroed Request from the pool r came from, for the
// request a level sends downstream on r's behalf; from the shared pool if
// r is a literal.
func (r *Request) Sibling() *Request {
	if r.home == 0 {
		return SharedPool.Get()
	}
	return Pool(r.home - 1).Get()
}

// PutRequest recycles a pooled request that no Port accepted; accepted
// requests are recycled by Complete. Literals are left alone.
func PutRequest(r *Request) {
	if r.home == 0 {
		return
	}
	*r = Request{home: r.home}
	l := &pools[r.home-1]
	if Pool(r.home-1) != SharedPool {
		l.put(r)
		return
	}
	l.mu.Lock()
	l.put(r)
	l.mu.Unlock()
}

// RequestBytes is the least a request walked by SnapValue takes in a
// stream.
const RequestBytes = 8 + 8 + 8 + 8 + 1

// SnapValue walks *p by value: the fields of a write nobody waits for
// (Addr, Size, PC, SMID, Write). Those are the only requests in flight at a
// kernel boundary, the L1 write-throughs and L2 writebacks, so saving fails
// with snap.ErrNotQuiescent for one with an Owner, a Done or a return hop.
// Loading makes *p a literal, which no pool takes back.
func SnapValue(c *snap.Codec, p **Request) {
	if c.Loading() {
		*p = new(Request)
	} else if r := *p; r.Owner != nil || r.Done != nil || r.hop != nil {
		c.Fail(fmt.Errorf("%w: the request for %#x is awaited", snap.ErrNotQuiescent, r.Addr))
		return
	}
	r := *p
	c.U64(&r.Addr)
	c.Int(&r.Size)
	c.U64(&r.PC)
	c.Int(&r.SMID)
	c.Bool(&r.Write)
}

// Port accepts memory requests with backpressure: Accept returns false when
// the module cannot take the request this cycle, and the caller must retry
// later (typically next tick).
type Port interface {
	Accept(r *Request) bool
}

// PortFunc adapts a function to the Port interface.
type PortFunc func(r *Request) bool

// Accept calls f(r).
func (f PortFunc) Accept(r *Request) bool { return f(r) }
