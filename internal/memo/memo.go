// Package memo is the memo of a pure function that the simulator keeps
// wherever it would otherwise recompute: generated traces and the two
// hit-rate profile phases, process-wide, and the job keys a sweep service
// or worker derives, for its lifetime. The service's blob store also keeps
// one, of its own, for the one in-memory copy of each result blob. A memo
// is keyed by content, never by pointer: a fact about one immutable object,
// such as a trace's digest, is kept on that object.
package memo

import (
	"sync"

	"swiftsim/internal/mem"
)

// Memo is a single-flight, weight-bounded memo: concurrent callers of one
// key compute its value once, and completed values are retained in FIFO
// order up to a total weight. Values are shared by every caller, so they
// must be immutable; evicting one never invalidates a copy already handed
// out.
type Memo[K comparable, V any] struct {
	limit  int
	weight func(V) int

	mu       sync.Mutex
	entries  map[K]*entry[V]
	order    mem.FIFO[K] // completed entries, oldest first
	held     int         // summed weight of the entries in order
	computes int
}

// entry is one key's value or the computation of it in flight.
type entry[V any] struct {
	ready  chan struct{} // closed once val is set, or the computation panicked
	val    V
	ok     bool
	weight int
}

// Stats counts a memo's entries and work, for tests.
type Stats struct {
	Entries  int // keys held, in flight or retained
	Computes int // compute calls started
}

// New returns a memo that retains completed values while their summed
// weight stays within limit.
func New[K comparable, V any](limit int, weight func(V) int) *Memo[K, V] {
	return &Memo[K, V]{limit: limit, weight: weight, entries: make(map[K]*entry[V])}
}

// Get returns key's value, calling compute(key) for it if no other caller
// has. compute takes the key so that a top-level function can be passed as
// is: a closure over the caller's variables is allocated whenever the
// caller is inlined into another package. A compute that panics leaves no
// trace: its entry is dropped before the panic continues up the caller's
// stack, and callers that were waiting on it, like later ones, compute for
// themselves.
func (m *Memo[K, V]) Get(key K, compute func(K) V) V {
	for {
		m.mu.Lock()
		e, found := m.entries[key]
		if !found {
			e = &entry[V]{ready: make(chan struct{})}
			m.entries[key] = e
			m.computes++
		}
		m.mu.Unlock()
		if !found {
			return m.fill(key, e, compute)
		}
		<-e.ready
		if e.ok {
			return e.val
		}
	}
}

func (m *Memo[K, V]) fill(key K, e *entry[V], compute func(K) V) V {
	defer func() {
		if !e.ok {
			m.mu.Lock()
			delete(m.entries, key)
			m.mu.Unlock()
		}
		close(e.ready)
	}()
	e.val = compute(key)
	e.weight = m.weight(e.val)
	e.ok = true

	m.mu.Lock()
	m.order.Push(key)
	m.held += e.weight
	// A value heavier than the whole limit is its own first victim: handed
	// to its callers, not retained.
	for m.held > m.limit {
		oldest := m.order.Pop()
		m.held -= m.entries[oldest].weight
		delete(m.entries, oldest)
	}
	m.mu.Unlock()
	return e.val
}

// Flush drops every retained value, so the next caller of each key
// computes it again: a measurement that must start cold starts so. A
// computation in flight completes for its callers and is retained as usual.
func (m *Memo[K, V]) Flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.order.Len() > 0 {
		delete(m.entries, m.order.Pop())
	}
	m.held = 0
}

// Stats reports the memo's current entries and the computes it has started.
func (m *Memo[K, V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Entries: len(m.entries), Computes: m.computes}
}
