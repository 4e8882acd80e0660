// The event store: where Schedule puts a completion event and where the
// event phase takes the due ones from, in (cycle, seq) order.
//
// Near events, those due within horizon cycles of now, sit in a timing
// wheel: wheelSize buckets, one simulated cycle each, bucket cycle&wheelMask
// holding the events of that one cycle in the order they were scheduled. A
// bucket is an intrusive singly linked FIFO through one node slab with a
// free list, so an enqueue is an append and a fire is a head pop: no
// comparisons, no sift, and no allocation once the slab has reached the
// run's high-water mark of pending events. An occupancy bitmap finds the
// next non-empty bucket in at most wheelSize/64 word tests. Far events, the
// few due at or beyond the horizon, stay in the binary heap the engine used
// for everything before.
//
// Order within one cycle c is: far events of c, popped in seq order, then
// c's bucket in append order. That is exactly (cycle, seq). An event filed
// far for c was enqueued at an engine cycle t0 <= c - horizon; an event
// filed near for c at a cycle t1 > c - horizon. So t1 > t0: every near
// event of c was enqueued at a later cycle than every far event of c, and
// seq only grows, so it holds the larger seq. Within the bucket append
// order is seq order. (The relaxed fold enqueues at the fold's cycle, not
// the capture cycle; the argument only needs the cycle the enqueue ran at.)
//
// An event is a closure (Schedule) or a memory request's retirement
// (ScheduleRetirement). A retirement is kept as the request, whose stage
// slot names what retires it, so a checkpoint can write it as a value
// (snapshot.go). Both kinds share the store's entries and its fire loop.
package engine

import (
	"math/bits"
	"sort"

	"swiftsim/internal/mem"
)

const (
	// wheelSize is the number of one-cycle buckets. It is a constant, chosen
	// on counted traffic (the 20 apps at scale 0.5, one pass): with 1,024
	// buckets 0 of 1,290,548 events under Swift-Sim-Basic and 0 of 1,216,157
	// under Detailed are due at or beyond the horizon; under Swift-Sim-Memory
	// on three GPUs 10,410 of 463,164 are (2.25%, the bandwidth meters'
	// queueing delays), and the far heap never held more than 64 of them at
	// once. Head and tail arrays cost 8 KB an engine.
	wheelSize = 1024
	wheelMask = wheelSize - 1
	// horizon is the first delay that goes to the far heap. It is one less
	// than the wheel, not the wheel: a delay-0 Schedule from a tick, and a
	// relaxed fold, leave events due at cycle c after c's event phase has
	// run. Such a leftover fires first thing in c+1's event phase, out of
	// bucket c, while the events it schedules may be due c+1+delay. With a
	// full-size horizon delay wheelSize-1 would land on c+wheelSize, which
	// is bucket c again, the one being drained, and fire wheelSize cycles
	// early. One spare bucket is enough because a leftover is never older
	// than one cycle: the run loop and the relaxed catch-up loop both step
	// to c+1 while anything is overdue. Every pending near event is
	// therefore due in [now-1, now+horizon-1], wheelSize-1 distinct buckets.
	horizon = wheelSize - 1

	// noEvent is eventStore.next when nothing is pending.
	noEvent = ^uint64(0)
)

type event struct {
	cycle uint64
	seq   uint64 // FIFO tie-break within a cycle
	fn    func()
	r     *mem.Request // a retirement, when fn is nil
}

// fire runs one event.
func fire(fn func(), r *mem.Request) {
	if r != nil {
		r.Retire()
		return
	}
	fn()
}

// eventQueue is a binary min-heap ordered by (cycle, seq): the far store.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].cycle != q[j].cycle {
		return q[i].cycle < q[j].cycle
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	i := len(*q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		(*q)[i], (*q)[parent] = (*q)[parent], (*q)[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	*q = h[:n]
	q.siftDown(0)
	return top
}

func (q *eventQueue) siftDown(i int) {
	h := *q
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// wheelNode is one pending near event. next links its bucket's FIFO while
// the event is pending and the free list afterwards; 0 ends either (node 0
// is never handed out).
type wheelNode struct {
	fn   func()
	r    *mem.Request
	next int32
}

// eventStore is the engine's pending events.
type eventStore struct {
	// next is the smallest cycle any pending event is due at, or noEvent.
	// Enqueue lowers it; the event phase recomputes it after draining a
	// cycle. "Is anything due" is next <= cycle, fast-forward jumps to it,
	// and deadlock is next == noEvent.
	next uint64
	// near counts the events in the wheel.
	near int
	far  eventQueue

	nodes []wheelNode
	free  int32 // head of the free list through nodes[i].next
	// occ has bit b set while bucket b is non-empty.
	occ        [wheelSize / 64]uint64
	head, tail [wheelSize]int32
}

// init makes the zero store an empty one.
func (s *eventStore) init() {
	s.next = noEvent
	// Node 0 is the list terminator. The capacity spares a run the first
	// few regrowths; the slab ends at the run's peak of pending events.
	s.nodes = make([]wheelNode, 1, 256)
}

// enqueue files fn, or r's retirement when fn is nil, to run in cycle's
// event phase (the next one, if cycle's has already run). cycle must not lie
// before the current cycle. Schedule, ScheduleRetirement and the relaxed
// fold all end here; seq advances once per event because it is part of the
// engine's snapshot section.
func (e *Engine) enqueue(cycle uint64, fn func(), r *mem.Request) {
	e.seq++
	e.file(cycle, e.seq, fn, r)
}

// file puts one event with sequence number seq into the store: enqueue's
// body, and a restored checkpoint's way back in.
func (e *Engine) file(cycle, seq uint64, fn func(), r *mem.Request) {
	s := &e.ev
	if cycle < s.next {
		s.next = cycle
	}
	if cycle-e.cycle >= horizon {
		s.far.push(event{cycle: cycle, seq: seq, fn: fn, r: r})
		return
	}
	i := s.free
	if i != 0 {
		s.free = s.nodes[i].next
		s.nodes[i] = wheelNode{fn: fn, r: r}
	} else {
		i = int32(len(s.nodes))
		s.nodes = append(s.nodes, wheelNode{fn: fn, r: r})
	}
	b := cycle & wheelMask
	if s.head[b] == 0 {
		s.head[b] = i
		s.occ[b>>6] |= 1 << (b & 63)
	} else {
		s.nodes[s.tail[b]].next = i
	}
	s.tail[b] = i
	s.near++
}

// fireBurst is the one event-fire loop: it drains every cycle that is due,
// oldest first (a leftover cycle, then the current one), each in the order
// the file comment derives. Events may schedule more events for the cycle
// being drained; they append to its bucket and run in FIFO order after it.
// They may also grow the slab, so no node pointer is held across fn().
func (e *Engine) fireBurst() {
	s := &e.ev
	for s.next <= e.cycle {
		n := s.next
		for len(s.far) > 0 && s.far[0].cycle <= n {
			ev := s.far.pop()
			e.firedEvents++
			fire(ev.fn, ev.r)
		}
		b := n & wheelMask
		for i := s.head[b]; i != 0; i = s.head[b] {
			nd := &s.nodes[i]
			fn, r := nd.fn, nd.r
			s.head[b] = nd.next
			*nd = wheelNode{next: s.free}
			s.free = i
			s.near--
			e.firedEvents++
			fire(fn, r)
		}
		s.occ[b>>6] &^= 1 << (b & 63)
		s.next = s.after(n)
	}
}

// after returns the smallest pending cycle once cycle n has been drained:
// the first occupied bucket from n+1 on, or the far heap's top if that is
// sooner.
func (s *eventStore) after(n uint64) uint64 {
	next := noEvent
	if s.near > 0 {
		// Every near event is due within wheelSize-1 cycles of n+1 (see
		// horizon), so the first set bit, scanning the bitmap circularly
		// from bucket n+1, names its cycle unambiguously. The last round
		// revisits the first word for the bits below the start.
		start := (n + 1) & wheelMask
		w := start >> 6
		word := s.occ[w] &^ (1<<(start&63) - 1)
		for range len(s.occ) + 1 {
			if word != 0 {
				b := w<<6 + uint64(bits.TrailingZeros64(word))
				next = n + 1 + (b-start)&wheelMask
				break
			}
			w = (w + 1) % uint64(len(s.occ))
			word = s.occ[w]
		}
	}
	if len(s.far) > 0 && s.far[0].cycle < next {
		next = s.far[0].cycle
	}
	return next
}

// pending returns the pending events in the order they will fire: each
// cycle's far events by seq, then its bucket in FIFO order. A near event
// gets a seq above every real one, in bucket order, for the sort.
func (e *Engine) pending() eventQueue {
	s := &e.ev
	evs := append(eventQueue(nil), s.far...)
	for b, i := range s.head {
		for ; i != 0; i = s.nodes[i].next {
			// Bucket b holds the one cycle of [now-1, now+horizon-1]
			// congruent to b (see horizon).
			c := e.cycle - 1 + (uint64(b)-e.cycle+1)&wheelMask
			evs = append(evs, event{cycle: c, seq: e.seq + uint64(len(evs)), fn: s.nodes[i].fn, r: s.nodes[i].r})
		}
	}
	sort.Slice(evs, evs.less)
	return evs
}
