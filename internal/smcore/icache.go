package smcore

import (
	"swiftsim/internal/engine"
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
type ICache struct {
	icacheClass
	capacity    int
	missLatency uint64
	lines       map[uint64]uint64 // line -> cycle at which it is usable
	order       []uint64          // FIFO eviction order
	lastPending uint64            // latest outstanding fill completion
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

// NewICache builds an instruction cache with the given capacity in lines
// and miss (fill) latency in cycles.
func NewICache(name string, capacityLines, missLatency int, g *metrics.Gatherer) *ICache {
	return newICache(newICacheClass(name, g), capacityLines, missLatency)
}

// newICache builds an empty instruction cache of class c.
func newICache(c icacheClass, capacityLines, missLatency int) *ICache {
	if capacityLines < 1 {
		capacityLines = 1
	}
	return &ICache{
		icacheClass: c,
		capacity:    capacityLines,
		missLatency: uint64(missLatency),
		lines:       make(map[uint64]uint64, capacityLines),
	}
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
	if readyAt, ok := ic.lines[line]; ok {
		if cycle >= readyAt {
			ic.hits.Inc()
			return true
		}
		return false // fill in flight
	}
	ic.misses.Inc()
	ic.fill(line, cycle)
	return false
}

// fill starts fetching a line if it is absent.
func (ic *ICache) fill(line, cycle uint64) {
	if _, ok := ic.lines[line]; ok {
		return
	}
	if len(ic.lines) >= ic.capacity {
		victim := ic.order[0]
		ic.order = ic.order[1:]
		delete(ic.lines, victim)
	}
	readyAt := cycle + ic.missLatency
	ic.lines[line] = readyAt
	ic.order = append(ic.order, line)
	if readyAt > ic.lastPending {
		ic.lastPending = readyAt
	}
}
