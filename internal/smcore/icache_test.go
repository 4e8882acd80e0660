package smcore

import (
	"fmt"
	"math/rand"
	"testing"

	"swiftsim/internal/metrics"
)

func TestICacheMissThenHit(t *testing.T) {
	g := metrics.New()
	ic := testICache("ic", 8, 40, g)
	if ic.Ready(0, 0) {
		t.Fatal("cold fetch ready")
	}
	if ic.Ready(0, 10) {
		t.Fatal("fetch ready before fill completes")
	}
	if !ic.Ready(0, 40) {
		t.Fatal("fetch not ready after fill latency")
	}
	if g.Value("ic.miss") != 1 {
		t.Errorf("misses = %d, want 1 (in-flight retries are not misses)", g.Value("ic.miss"))
	}
	if g.Value("ic.hit") != 1 {
		t.Errorf("hits = %d, want 1", g.Value("ic.hit"))
	}
}

func TestICacheSameLineSharesFill(t *testing.T) {
	g := metrics.New()
	ic := testICache("ic", 8, 40, g)
	ic.Ready(0, 0)
	// PC 8..56 are in the same 64-byte line: no extra misses.
	for pc := uint64(8); pc < 64; pc += 8 {
		ic.Ready(pc, 1)
	}
	if g.Value("ic.miss") != 1 {
		t.Errorf("misses = %d, want 1 for one line", g.Value("ic.miss"))
	}
}

func TestICacheNextLinePrefetch(t *testing.T) {
	g := metrics.New()
	ic := testICache("ic", 8, 40, g)
	ic.Ready(0, 0) // miss line 0; prefetch lines 1..2
	// After the fill window, sequential code hits without new misses.
	for pc := uint64(64); pc < 64*3; pc += 8 {
		if !ic.Ready(pc, 100) {
			t.Fatalf("prefetched pc %#x not ready", pc)
		}
	}
	if g.Value("ic.miss") != 1 {
		t.Errorf("misses = %d, want 1 (stream prefetch)", g.Value("ic.miss"))
	}
}

func TestICacheCapacityEviction(t *testing.T) {
	g := metrics.New()
	ic := testICache("ic", 2, 10, g)
	// Touch many distinct lines far apart (no prefetch overlap).
	for i := uint64(0); i < 8; i++ {
		ic.Ready(i*64*10, 100*(i+1))
	}
	if got := len(ic.order()); got > 2 {
		t.Errorf("resident lines = %d, want <= capacity 2", got)
	}
	// The earliest line was evicted: fetching it again misses.
	before := g.Value("ic.miss")
	ic.Ready(0, 10_000)
	if g.Value("ic.miss") != before+1 {
		t.Error("evicted line did not miss")
	}
}

func TestICacheBusyWindow(t *testing.T) {
	g := metrics.New()
	ic := testICache("ic", 8, 40, g)
	if ic.Busy(0) {
		t.Fatal("fresh icache busy")
	}
	ic.Ready(0, 5)
	if !ic.Busy(6) {
		t.Fatal("icache idle during fill")
	}
	if ic.Busy(100) {
		t.Fatal("icache busy after fills complete")
	}
}

func TestICacheCapacityClamp(t *testing.T) {
	ic := testICache("ic", 0, 10, metrics.New())
	if len(ic.lines) != 1 {
		t.Errorf("capacity = %d, want clamped to 1", len(ic.lines))
	}
}

// refICache is the instruction cache as it was before its ring: a map from
// line to ready cycle beside a FIFO slice of lines that is popped from the
// front and appended to.
type refICache struct {
	capacity     int
	missLatency  uint64
	lines        map[uint64]uint64
	order        []uint64
	lastPending  uint64
	hits, misses uint64
}

func newRefICache(capacity, missLatency int) *refICache {
	return &refICache{capacity: max(capacity, 1), missLatency: uint64(missLatency), lines: map[uint64]uint64{}}
}

func (ic *refICache) Ready(pc, cycle uint64) bool {
	line := pc / icacheLineBytes
	for d := uint64(1); d <= prefetchDepth; d++ {
		ic.fill(line+d, cycle)
	}
	if readyAt, ok := ic.lines[line]; ok {
		if cycle >= readyAt {
			ic.hits++
			return true
		}
		return false
	}
	ic.misses++
	ic.fill(line, cycle)
	return false
}

func (ic *refICache) fill(line, cycle uint64) {
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

// TestICacheMatchesReference replays seeded fetch streams, mostly
// sequential with jumps back into recent code and far away, through the
// ring and the map-and-slice reference. Small capacities evict through the
// prefetcher, and cycles advance slower than the fill latency, so lines are
// often asked for while their fill is in flight. After every call the
// answers, counters, latest fill and FIFO order must agree.
func TestICacheMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			g := metrics.New()
			ic := testICache("ic", capacity, 40, g)
			ref := newRefICache(capacity, 40)
			rng := rand.New(rand.NewSource(seed))
			pc, cycle := uint64(0), uint64(0)
			for call := 0; call < 4000; call++ {
				switch r := rng.Intn(100); {
				case r < 70:
					pc += 8
				case r < 85:
					pc -= min(pc, uint64(rng.Intn(8*icacheLineBytes)))
				case r < 95:
					pc = uint64(rng.Intn(1<<16)) &^ 7
				}
				cycle += uint64(rng.Intn(12))
				got, want := ic.Ready(pc, cycle), ref.Ready(pc, cycle)
				if got != want || g.Value("ic.hit") != ref.hits || g.Value("ic.miss") != ref.misses ||
					ic.lastPending != ref.lastPending || fmt.Sprint(ic.order()) != fmt.Sprint(ref.order) {
					t.Fatalf("capacity %d seed %d call %d (pc %#x cycle %d): ring %v hits %d misses %d pending %d lines %x; reference %v hits %d misses %d pending %d lines %x",
						capacity, seed, call, pc, cycle, got, g.Value("ic.hit"), g.Value("ic.miss"), ic.lastPending, ic.order(),
						want, ref.hits, ref.misses, ref.lastPending, ref.order)
				}
			}
		}
	}
}

// TestICacheAllocatesNothing: once built, the ring takes every fetch, fill
// and eviction in its two arrays.
func TestICacheAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ic := testICache("ic", 4, 40, metrics.New())
	pc, cycle := uint64(0), uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		pc += 3 * icacheLineBytes // a new line and both prefetches every call
		cycle += 7
		ic.Ready(pc, cycle)
	})
	if allocs != 0 {
		t.Errorf("a fetch allocated %v objects, want 0", allocs)
	}
}
