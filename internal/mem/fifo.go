package mem

import "swiftsim/internal/snap"

// FIFO is the queue every memory-system module keeps its in-flight work
// in: a ring over one backing array that is reused for ever, where the
// slice idiom (q = q[1:] to pop, append to push) walks the array forward
// and reallocates it every few pushes. The zero value is an empty queue.
// It grows by doubling when a Push finds it full; a module with a bound
// (bank queue depth, NoC queue capacity) checks Len against it before
// pushing, and the ring then stops growing at that bound.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int // elements queued
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Front returns the oldest element without removing it. The queue must
// not be empty.
func (q *FIFO[T]) Front() T { return q.buf[q.head] }

// Pop removes and returns the oldest element. The queue must not be
// empty. The vacated slot is zeroed so the ring does not retain pointers.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Snap walks the queue oldest first, each element with elem; loading
// fills a queue that a freshly assembled module has empty. elemBytes is the
// least one element takes in the stream.
func (q *FIFO[T]) Snap(c *snap.Codec, elemBytes int, elem func(*snap.Codec, *T)) {
	n := q.n
	c.Count(&n, elemBytes)
	for c.Loading() && c.Err() == nil && q.n < n {
		q.Push(*new(T))
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		elem(c, &q.buf[(q.head+i)&(len(q.buf)-1)])
	}
}
