// Package mem defines the fixed interface between memory-system modules:
// sector-granular requests with completion callbacks, and the backpressured
// Port every level (L1, NoC, L2 slice, DRAM partition) implements. Because
// all modules speak this one interface, any level can be swapped between a
// cycle-accurate module and an analytical model without touching its
// neighbours — the decoupling requirement of the paper's §III-B2.
package mem

import (
	"fmt"

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
// then, if the request came from a Store, returns it there. So
// nobody frees a request explicitly, nobody touches one after calling
// Complete, and the notified creator must not keep the pointer past its
// callback. A request built with a literal (&Request{...}) never enters
// a store and stays valid for as long as its creator keeps it.
//
// The continuation a request needs at each step is data on the request
// (Owner, the hop slot, the stage slot below) rather than a closure built
// per step, so the steady-state path allocates nothing. One slot of each
// kind is enough because a request crosses one interconnect hop and is
// accepted by one cache/DRAM level at a time: a level that misses sends a
// request of its own downstream and parks the original.
//
// Everything a module recycles (requests, LD/ST instructions, MSHR
// entries, queue slots) belongs to one run and is touched only by that
// run's goroutine, so none of it takes a lock.
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
	// store is the Store the request came from; nil marks a literal.
	store *Store

	// The one- and four-byte fields sit together at the end so the struct
	// stays in the 112-byte size class: the benchmark rigs and tests
	// allocate one literal per request.
	hopTag int32
	lvl    Level
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
// came from a store. Modules call Complete; Deliver is for a Hop finishing
// the return traversal it started in Return.
func (r *Request) Deliver() {
	if r.Owner != nil {
		r.Owner.RequestDone(r)
	} else if r.Done != nil {
		r.Done()
	}
	PutRequest(r)
}

// Store is one run's supply of requests for the L1/NoC/DRAM hot path,
// where the detailed configurations use one per sector transaction. A run
// whose layout has cycle-accurate LD/ST units makes one store; its units
// draw sector requests from it, and every request a level sends on a
// request's behalf comes from that request's store (Sibling). Like every
// other record a run grows, requests are carved from a slab, storeChunk at
// a time, and come back to a free list that grows only to the number
// carved, so the steady state allocates nothing. A store is touched only
// by its run's goroutine and takes no lock; it is reachable only from its
// run's assembly and from its own requests, so a request still in flight
// when the run ends is collected with them. The zero Store is ready to
// use.
type Store struct {
	slab Slab[Request]
	free []*Request
}

// storeChunk is how many requests a store carves at a time.
const storeChunk = 256

// Get returns a zeroed request of s. Complete returns it.
func (s *Store) Get() *Request {
	if n := len(s.free); n > 0 {
		r := s.free[n-1]
		s.free = s.free[:n-1]
		return r
	}
	s.slab.chunk = storeChunk
	r := s.slab.One()
	r.store = s
	return r
}

// Sibling returns a zeroed request from r's store, for the request a level
// sends downstream on r's behalf; a literal if r is one.
func (r *Request) Sibling() *Request {
	if r.store == nil {
		return new(Request)
	}
	return r.store.Get()
}

// PutRequest recycles a request of a store that no Port accepted; accepted
// requests are recycled by Complete. Literals are left alone.
func PutRequest(r *Request) {
	s := r.store
	if s == nil {
		return
	}
	*r = Request{store: s}
	s.free = append(s.free, r)
}

// RequestBytes is the least a request walked by SnapValue takes in a
// stream.
const RequestBytes = 8 + 8 + 8 + 8 + 1

// SnapValue walks *p by value: the fields of a write nobody waits for
// (Addr, Size, PC, SMID, Write). Those are the only requests in flight at a
// kernel boundary, the L1 write-throughs and L2 writebacks, so saving fails
// with snap.ErrNotQuiescent for one with an Owner, a Done or a return hop.
// Loading makes *p a literal, which no store takes back.
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
