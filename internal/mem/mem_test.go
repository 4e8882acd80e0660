package mem

import (
	"runtime"
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

// TestStoreRecyclesOnlyItsRequests: Complete zeroes a request of a store
// for its next user and keeps it in that store; a literal one is left
// alone by Complete and PutRequest, and its siblings are literals too.
func TestStoreRecyclesOnlyItsRequests(t *testing.T) {
	var c recorder
	var s Store
	p := s.Get()
	p.Addr, p.Owner = 64, &c
	p.Retirement(&c, LevelDRAM).Retire()
	if p.Addr != 0 || p.Owner != nil || p.ServicedBy != LevelNone || p.stage != nil {
		t.Errorf("request of a store not zeroed by Complete: %+v", p)
	}
	if p.store != &s {
		t.Error("recycling dropped the request's store")
	}
	if got := s.Get(); got != p {
		t.Error("a completed request was not the store's next Get")
	}
	if sib := p.Sibling(); sib.store != &s || sib == p {
		t.Error("a sibling did not come from its request's store")
	}

	lit := &Request{Addr: 32, Write: true}
	PutRequest(lit)
	lit.Complete(LevelL2)
	if lit.Addr != 32 || lit.ServicedBy != LevelL2 {
		t.Errorf("literal request touched by a store: %+v", lit)
	}
	if sib := lit.Sibling(); sib.store != nil {
		t.Error("the sibling of a literal came from a store")
	}
}

// TestStoreCarvesChunks: a store allocates requests a chunk at a time, and
// a run that stays under its peak of requests in flight allocates nothing.
func TestStoreCarvesChunks(t *testing.T) {
	var s Store
	out := make([]*Request, 0, 2*storeChunk)
	take := func(n int) {
		for range n {
			out = append(out, s.Get())
		}
	}
	for i := range 2 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		take(storeChunk)
		runtime.ReadMemStats(&m1)
		if n := m1.Mallocs - m0.Mallocs; n != 1 {
			t.Errorf("chunk %d of requests cost %d allocations, want 1", i, n)
		}
	}
	replay := func() {
		for _, r := range out {
			r.Complete(LevelL1)
		}
		out = out[:0]
		take(2 * storeChunk)
	}
	replay()
	if allocs := testing.AllocsPerRun(10, replay); allocs != 0 {
		t.Errorf("a replay under the store's peak allocated %v objects, want 0", allocs)
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
// into the next; One takes from the same chunk.
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
	s = NewSlab[uint64](64)
	s.Take(1)
	if allocs := testing.AllocsPerRun(10, func() { slabSink = s.One() }); allocs != 0 {
		t.Errorf("One within a slab's chunk allocated %v objects, want 0", allocs)
	}
}

// slabSink keeps a take on the heap.
var slabSink *uint64

// TestFIFOOverStartsAtItsArray: a queue over a carved array fills it before
// it grows, and keeps its order across the growth. A one-slot array, an LD/ST
// queue of depth 1, is a power of two too.
func TestFIFOOverStartsAtItsArray(t *testing.T) {
	one := FIFOOver(make([]int, 1))
	one.Push(7)
	if one.Pop() != 7 {
		t.Error("a one-slot queue lost its element")
	}
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
