package mem

import (
	"testing"
	"unsafe"
)

func TestCompleteSetsLevelOnce(t *testing.T) {
	calls := 0
	r := &Request{Addr: 64, Done: func() { calls++ }}
	r.Complete(LevelL2)
	if r.ServicedBy != LevelL2 {
		t.Fatalf("ServicedBy = %v, want L2", r.ServicedBy)
	}
	// A second Complete (e.g. a wrapper forwarding the callback) must
	// not overwrite the first service level.
	r.Complete(LevelDRAM)
	if r.ServicedBy != LevelL2 {
		t.Errorf("ServicedBy overwritten to %v", r.ServicedBy)
	}
	if calls != 2 {
		t.Errorf("Done called %d times across two Completes", calls)
	}
}

func TestCompleteNilDone(t *testing.T) {
	r := &Request{Addr: 0, Write: true}
	r.Complete(LevelDRAM) // must not panic
	if r.ServicedBy != LevelDRAM {
		t.Errorf("ServicedBy = %v", r.ServicedBy)
	}
}

func TestLevelStrings(t *testing.T) {
	cases := map[Level]string{
		LevelNone: "none", LevelL1: "L1", LevelL2: "L2", LevelDRAM: "DRAM", Level(99): "?",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", l, got, want)
		}
	}
}

func TestPortFunc(t *testing.T) {
	accepted := 0
	var p Port = PortFunc(func(r *Request) bool {
		accepted++
		return r.Addr%64 == 0
	})
	if !p.Accept(&Request{Addr: 128}) {
		t.Error("aligned request rejected")
	}
	if p.Accept(&Request{Addr: 130}) {
		t.Error("misaligned request accepted")
	}
	if accepted != 2 {
		t.Errorf("calls = %d, want 2", accepted)
	}
}

// recorder is a Requester, a Hop and a Stage that logs what reached it.
type recorder struct {
	log      []string
	returned *Request
}

func (c *recorder) RequestDone(r *Request)     { c.log = append(c.log, "owner:"+r.ServicedBy.String()) }
func (c *recorder) Return(r *Request, tag int) { c.log = append(c.log, "hop"); c.returned = r }
func (c *recorder) Retire(r *Request, lvl Level) {
	c.log = append(c.log, "stage:"+lvl.String())
	r.Complete(lvl)
}

// TestCompletionChain follows one request through every continuation slot:
// the scheduled retirement, the hop back, and the owner, in that order.
func TestCompletionChain(t *testing.T) {
	var c recorder
	doneCalls := 0
	r := &Request{Addr: 96, Owner: &c, Done: func() { doneCalls++ }}
	if !r.WantsReply() {
		t.Fatal("request with an owner does not want a reply")
	}
	r.Via(&c, 3)
	r.Retirement(&c, LevelL2).Retire()
	if c.returned != r {
		t.Fatalf("Complete did not take the hop back; log %v", c.log)
	}
	r.Deliver()
	want := []string{"stage:L2", "hop", "owner:L2"}
	if len(c.log) != len(want) {
		t.Fatalf("log = %v, want %v", c.log, want)
	}
	for i := range want {
		if c.log[i] != want[i] {
			t.Fatalf("log = %v, want %v", c.log, want)
		}
	}
	if doneCalls != 0 {
		t.Errorf("Done called %d times on a request with an Owner", doneCalls)
	}
	if r.Addr != 96 {
		t.Errorf("literal request was recycled: Addr = %d", r.Addr)
	}
	if (&Request{Write: true}).WantsReply() {
		t.Error("request with neither Owner nor Done wants a reply")
	}
}

// TestPoolRecyclesOnlyPooledRequests: Complete zeroes a pooled request for
// its next user and leaves a literal one alone, PutRequest likewise.
func TestPoolRecyclesOnlyPooledRequests(t *testing.T) {
	var c recorder
	p := SharedPool.Get()
	p.Addr, p.Owner = 64, &c
	p.Retirement(&c, LevelDRAM).Retire()
	if p.Addr != 0 || p.Owner != nil || p.ServicedBy != LevelNone || p.stage != nil {
		t.Errorf("pooled request not zeroed by Complete: %+v", p)
	}
	if p.home == 0 {
		t.Error("recycling dropped the pool mark")
	}

	lit := &Request{Addr: 32, Write: true}
	PutRequest(lit)
	lit.Complete(LevelL2)
	if lit.Addr != 32 || lit.ServicedBy != LevelL2 {
		t.Errorf("literal request touched by the pool: %+v", lit)
	}
}

// TestPoolsAreHeldOneRunAtATime: the lowest free pool is handed out, a
// released one is handed out again with the requests it kept, and when all
// are held the shared pool serves.
func TestPoolsAreHeldOneRunAtATime(t *testing.T) {
	a, b := AcquirePool(), AcquirePool()
	if a == SharedPool || b == SharedPool || a == b {
		t.Fatalf("AcquirePool gave %d and %d", a, b)
	}
	r := a.Get()
	if s := r.Sibling(); s.home != r.home {
		t.Errorf("sibling of a pool-%d request came from pool %d", r.home-1, s.home-1)
	}
	if s := (&Request{}).Sibling(); s.home != uint8(SharedPool)+1 {
		t.Errorf("sibling of a literal came from pool %d, want the shared one", s.home-1)
	}
	r.Complete(LevelL1)
	a.Release()
	if c := AcquirePool(); c != a {
		t.Errorf("after releasing pool %d AcquirePool gave %d", a, c)
	} else if got := c.Get(); got != r {
		t.Error("a released pool did not keep its requests for the next holder")
	}

	held := []Pool{a, b}
	for {
		p := AcquirePool()
		if p == SharedPool {
			break
		}
		held = append(held, p)
	}
	if len(held) != numPools-1 {
		t.Errorf("%d pools could be held at once, want %d", len(held), numPools-1)
	}
	for _, p := range held {
		p.Release()
	}
	SharedPool.Release() // a no-op: the shared pool is never free to acquire
	if p := AcquirePool(); p == SharedPool {
		t.Error("SharedPool handed out after Release")
	} else {
		p.Release()
	}
}

// TestPoolForgetsRequestsItHandsOut: a request that never completes (its
// run ended first) must not stay reachable from the pool, or every finished
// assembly would through its hop and stage slots.
func TestPoolForgetsRequestsItHandsOut(t *testing.T) {
	p := AcquirePool()
	defer p.Release()
	p.Get().Complete(LevelL1)
	l := &pools[p]
	n := len(l.free)
	r := p.Get()
	if got := l.free[:n][n-1]; got != nil {
		t.Errorf("slot of handed-out request %p still holds %p", r, got)
	}
}

func TestFIFOOrderAcrossWrapAndGrowth(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got := q.Front(); got != want {
				t.Fatalf("Front = %d, want %d", got, want)
			}
			if got := q.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(next)
			next++
		}
	}
	// Hold 3 of 4 slots and cycle them: the head wraps every four pops.
	push(3)
	for i := 0; i < 10; i++ {
		pop(2)
		push(2)
	}
	if len(q.buf) != 4 {
		t.Fatalf("ring grew to %d slots while never holding more than 3", len(q.buf))
	}
	// Grow with the head mid-array: order must survive the unwrap.
	pop(1)
	push(7)
	if q.Len() != 9 || len(q.buf) != 16 {
		t.Fatalf("Len/slots = %d/%d, want 9/16", q.Len(), len(q.buf))
	}
	for i := 0; i < 20; i++ {
		pop(5)
		push(5)
	}
	pop(9)
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
	if len(q.buf) != 16 {
		t.Errorf("ring holds %d slots, want the 16 it had grown to", len(q.buf))
	}
}

func TestFIFOPopReleasesPointers(t *testing.T) {
	var q FIFO[*Request]
	q.Push(&Request{})
	q.Pop()
	for i, p := range q.buf {
		if p != nil {
			t.Errorf("slot %d still holds a popped request", i)
		}
	}
}

// TestRequestSizeClass pins the struct to the allocator's 112-byte class;
// one more word puts every literal request (rigs, tests) in the next one.
func TestRequestSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got > 112 {
		t.Errorf("sizeof(Request) = %d, want at most 112", got)
	}
}

// TestSlabCarvesChunks: takes from a slab share its chunk until it runs out,
// each capped so that an append past one reallocates instead of writing
// into the next; a nil slab allocates every take on its own.
func TestSlabCarvesChunks(t *testing.T) {
	s := NewSlab[uint64](8)
	var a, b []uint64
	allocs := testing.AllocsPerRun(1, func() {
		s = NewSlab[uint64](8)
		a, b = s.Take(3), s.Take(5)
	})
	if allocs != 2 { // the slab and its first chunk
		t.Errorf("a slab and two takes within its chunk allocated %v objects, want 2", allocs)
	}
	if cap(a) != 3 || cap(b) != 5 {
		t.Fatalf("takes have capacities %d and %d, want 3 and 5", cap(a), cap(b))
	}
	b[0] = 7
	a = append(a, 1)
	if b[0] != 7 {
		t.Error("an append past a take wrote into the next take")
	}
	if c := s.Take(10); len(c) != 10 || c[9] != 0 {
		t.Errorf("a take larger than the chunk returned %d elements", len(c))
	}
	var none *Slab[uint64]
	if allocs := testing.AllocsPerRun(10, func() { slabSink = none.One() }); allocs != 1 {
		t.Errorf("a nil slab's take allocated %v objects, want 1", allocs)
	}
}

// slabSink keeps a take on the heap.
var slabSink *uint64

// TestFIFOOverStartsAtItsArray: a queue over a carved array fills it before
// it grows, and keeps its order across the growth.
func TestFIFOOverStartsAtItsArray(t *testing.T) {
	buf := make([]int, 4)
	q := FIFOOver(buf)
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	if &q.buf[0] != &buf[0] {
		t.Fatal("a queue over an array of its depth left it before it was full")
	}
	q.Push(4)
	for want := 0; want < 5; want++ {
		if got := q.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
}
