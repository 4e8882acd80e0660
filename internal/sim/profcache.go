package sim

import (
	"sync"

	"swiftsim/internal/config"
	"swiftsim/internal/mem"
	"swiftsim/internal/reuse"
	"swiftsim/internal/trace"
)

// The hit-rate profile memo (DESIGN.md, "Hit-rate profiles: two phases, two
// keys"): reuse.FilterL1 is memoised under the trace's content hash and the
// L1 geometry it reads, reuse.ReplayL2 under that key plus the L2 level it
// reads, so the design points of a sweep over one trace pay each phase once
// per distinct input of that phase.

// memo is a single-flight, byte-bounded memo of a pure function: concurrent
// callers of one key compute its value once, and completed values are
// retained in FIFO order up to limit bytes. Values are immutable, so
// evicting one never invalidates a copy already handed out.
type memo[K comparable, V any] struct {
	limit int
	size  func(V) int

	mu       sync.Mutex
	entries  map[K]*memoEntry[V]
	order    mem.FIFO[K] // completed entries, oldest first
	bytes    int         // retained by the entries in order
	computed int         // compute calls started, for tests
}

// memoEntry is one key's value or the computation of it in flight.
type memoEntry[V any] struct {
	ready chan struct{} // closed once val is set, or the computation panicked
	val   V
	ok    bool
	size  int
}

func newMemo[K comparable, V any](limit int, size func(V) int) *memo[K, V] {
	return &memo[K, V]{limit: limit, size: size, entries: make(map[K]*memoEntry[V])}
}

// get returns key's value, calling compute for it if no other caller has.
// A compute that panics leaves no trace: its entry is dropped before the
// panic continues up the caller's stack, and callers that were waiting on
// it, like later ones, compute for themselves.
func (m *memo[K, V]) get(key K, compute func() V) V {
	for {
		m.mu.Lock()
		e, found := m.entries[key]
		if !found {
			e = &memoEntry[V]{ready: make(chan struct{})}
			m.entries[key] = e
			m.computed++
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

func (m *memo[K, V]) fill(key K, e *memoEntry[V], compute func() V) V {
	defer func() {
		if !e.ok {
			m.mu.Lock()
			delete(m.entries, key)
			m.mu.Unlock()
		}
		close(e.ready)
	}()
	e.val = compute()
	e.size = memoEntryBytes + m.size(e.val)
	e.ok = true

	m.mu.Lock()
	m.order.Push(key)
	m.bytes += e.size
	// A value larger than the whole bound is its own first victim: handed
	// to its callers, not retained.
	for m.bytes > m.limit {
		oldest := m.order.Pop()
		m.bytes -= m.entries[oldest].size
		delete(m.entries, oldest)
	}
	m.mu.Unlock()
	return e.val
}

type phaseOneKey struct {
	app  [32]byte // trace.ContentHash: separately parsed copies of a trace share
	geom reuse.L1Geometry
}

type phaseTwoKey struct {
	one phaseOneKey
	l2  reuse.Level
}

// Retained-byte bounds. A phase-one result is 12 bytes per L2-bound access:
// the 20 catalog apps at scale 1 retain 11 MB between them, BFS the most
// at 2 MB. A profile is about 100 bytes per static memory instruction, less
// than its key, so every entry is also charged memoEntryBytes. Sampled runs
// profile truncated apps whose content never repeats, and the bounds are
// what keeps a long-lived process from accumulating them.
const (
	phaseOneBytes  = 32 << 20
	phaseTwoBytes  = 4 << 20
	memoEntryBytes = 512 // key, entry and channel
)

// profileBytes estimates what a profile retains: a map entry of Key and
// Rates per static instruction, with the map's own overhead.
func profileBytes(p *reuse.Profile) int { return 100 * len(p.PerPC) }

var (
	phaseOne = newMemo[phaseOneKey](phaseOneBytes, (*reuse.L1Filtered).Bytes)
	phaseTwo = newMemo[phaseTwoKey](phaseTwoBytes, profileBytes)
)

// profileCached returns the memoized hit-rate profile for (app, gpu, src),
// computing on first use whichever of its two phases no earlier call paid.
func profileCached(app *trace.App, gpu config.GPU, src HitRateSource) *reuse.Profile {
	distance := src == ReuseDistance
	one := phaseOneKey{app: trace.ContentHash(app), geom: reuse.L1GeometryOf(app, gpu, distance)}
	two := phaseTwoKey{one: one, l2: reuse.L2LevelOf(gpu, distance)}
	return phaseTwo.get(two, func() *reuse.Profile {
		return phaseOne.get(one, func() *reuse.L1Filtered {
			return reuse.FilterL1(app, one.geom)
		}).ReplayL2(two.l2)
	})
}
