package mem

// Slab hands out runs of elements carved from slices it allocates chunk
// elements at a time. It is how a run allocates per module class rather
// than per module instance (DESIGN.md §11.2): a class constructor sizes one
// slab for its n instances' arrays and carves each instance's from it, and
// the records a run grows from empty (in-flight instructions, resident
// blocks, MSHR entries) come from a slab shared by the class, chunk by
// chunk. A slab is touched only by its run's goroutine, like everything
// else a module recycles.
type Slab[T any] struct {
	spare []T
	chunk int
}

// NewSlab returns a slab that allocates at least chunk elements at a time.
func NewSlab[T any](chunk int) *Slab[T] { return &Slab[T]{chunk: chunk} }

// Take returns n zeroed elements, capped at n so that an append past them
// reallocates instead of running into the next take's.
func (s *Slab[T]) Take(n int) []T {
	if n > len(s.spare) {
		s.spare = make([]T, max(n, s.chunk))
	}
	t := s.spare[:n:n]
	s.spare = s.spare[n:]
	return t
}

// One returns one zeroed element.
func (s *Slab[T]) One() *T {
	return &s.Take(1)[0]
}

// FIFOOver returns an empty queue whose backing array is buf, whose length
// must be a power of two: a class carves its queues' arrays from one slab,
// at the depth they work at, so a queue first grows (by doubling, into an
// array of its own) only past it.
func FIFOOver[T any](buf []T) FIFO[T] {
	if len(buf)&(len(buf)-1) != 0 {
		panic("mem: FIFO backing array length is not a power of two")
	}
	return FIFO[T]{buf: buf}
}
