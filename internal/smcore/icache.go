package smcore

import (
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
)

// icacheLineBytes is the instruction-cache line size (8 instructions at 8
// bytes per trace PC step).
const icacheLineBytes = 64

// ICache models the per-sub-core instruction cache of the detailed
// simulator: the fetch of each issued PC must hit, misses stall the warp
// for the fill latency, and capacity is managed FIFO. The paper's
// Swift-Sim-Basic explicitly simplifies the instruction cache away, so the
// hybrid configurations run without one.
//
// The resident lines are a FIFO ring over two fixed arrays of capacity
// slots, each line's ready cycle beside it: the oldest line at head, the
// newest n-1 slots on. A fetch stream mostly asks for its newest lines, so
// a lookup scans from the newest back, and nothing allocates after the
// cache is built.
type ICache struct {
	icacheClass
	missLatency uint64
	lines       []uint64 // resident line numbers, a ring of capacity slots
	ready       []uint64 // ready[i]: cycle at which lines[i] is usable
	head, n     int      // oldest slot and resident line count
	lastPending uint64   // latest outstanding fill completion
}

// icacheClass is what every instruction cache of an assembly shares: its
// name and its counters.
type icacheClass struct {
	name   string
	hits   *metrics.Counter
	misses *metrics.Counter
}

func newICacheClass(name string, g *metrics.Gatherer) icacheClass {
	return icacheClass{name: name, hits: g.Counter(name + ".hit"), misses: g.Counter(name + ".miss")}
}

// newICache builds an empty instruction cache of class c with the given
// capacity in lines and miss (fill) latency in cycles, taking it from
// caches and its line and ready arrays from words.
func newICache(c icacheClass, capacityLines, missLatency int, caches *mem.Slab[ICache], words *mem.Slab[uint64]) *ICache {
	capacityLines = max(capacityLines, 1)
	slab := words.Take(2 * capacityLines)
	ic := caches.One()
	*ic = ICache{
		icacheClass: c,
		missLatency: uint64(missLatency),
		lines:       slab[:capacityLines:capacityLines],
		ready:       slab[capacityLines:],
	}
	return ic
}

// Name implements engine.Module.
func (ic *ICache) Name() string { return ic.name }

// Kind implements engine.Module.
func (ic *ICache) Kind() engine.ModelKind { return engine.CycleAccurate }

// Busy reports whether a fill is outstanding, so the engine keeps ticking
// until stalled warps can fetch again.
func (ic *ICache) Busy(cycle uint64) bool { return cycle < ic.lastPending }

// prefetchDepth is how many sequential lines the stream prefetcher runs
// ahead of the fetch PC.
const prefetchDepth = 2

// Ready reports whether the instruction at pc can be fetched at the given
// cycle. A miss starts the fill and returns false; the caller retries
// until the fill completes. Sequential next lines are prefetched, as
// hardware instruction caches stream code.
func (ic *ICache) Ready(pc, cycle uint64) bool {
	line := pc / icacheLineBytes
	for d := uint64(1); d <= prefetchDepth; d++ {
		ic.fill(line+d, cycle)
	}
	if i := ic.find(line); i >= 0 {
		if cycle >= ic.ready[i] {
			ic.hits.Inc()
			return true
		}
		return false // fill in flight
	}
	ic.misses.Inc()
	ic.fill(line, cycle)
	return false
}

// slot returns the ring slot of the i-th oldest resident line.
func (ic *ICache) slot(i int) int {
	if i += ic.head; i >= len(ic.lines) {
		i -= len(ic.lines)
	}
	return i
}

// find returns the slot holding line, or -1 if it is not resident.
func (ic *ICache) find(line uint64) int {
	for i := ic.n - 1; i >= 0; i-- {
		if s := ic.slot(i); ic.lines[s] == line {
			return s
		}
	}
	return -1
}

// fill starts fetching a line if it is absent, evicting the oldest line
// when the cache is full.
func (ic *ICache) fill(line, cycle uint64) {
	if ic.find(line) >= 0 {
		return
	}
	if ic.n == len(ic.lines) {
		ic.head = ic.slot(1)
		ic.n--
	}
	readyAt := cycle + ic.missLatency
	s := ic.slot(ic.n)
	ic.lines[s], ic.ready[s] = line, readyAt
	ic.n++
	if readyAt > ic.lastPending {
		ic.lastPending = readyAt
	}
}
