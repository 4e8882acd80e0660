package cache

import (
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/dram"
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/noc"
)

// access is one step of a scripted request stream.
type access struct {
	addr  uint64
	write bool
}

// hierarchy is the timed memory path of one SM and one partition: a
// write-through L1 over a crossbar, a write-back L2 and a DRAM channel,
// fed by a scripted driver that owns its requests the way the LD/ST unit
// does (from a store, Owner set, no closure).
type hierarchy struct {
	eng    *engine.Engine
	l1     *Timed
	g      *metrics.Gatherer
	reqs   mem.Store
	script []access
	next   int
	done   int
	wake   func()
}

func newHierarchy() *hierarchy {
	h := &hierarchy{eng: engine.New(), g: metrics.New()}
	l1cfg := config.Cache{
		Sets: 4, Ways: 2, LineBytes: 128, SectorBytes: 32, Banks: 2,
		MSHREntries: 8, MSHRMaxMerge: 4, HitLatency: 4,
		Replacement: config.LRU, Throughput: 1,
	}
	l2cfg := l1cfg
	l2cfg.Sets, l2cfg.HitLatency, l2cfg.WriteBack = 8, 10, true
	dp := dram.New("dram", h.eng, 4, 60, 30, h.g)
	l2 := NewTimed("l2", l2cfg, mem.LevelL2, h.eng, dp, h.g)
	x := noc.NewCrossbar("noc", h.eng, []mem.Port{l2}, func(uint64) int { return 0 }, 3, 1, h.g)
	h.l1 = NewTimed("l1", l1cfg, mem.LevelL1, h.eng, x, h.g)
	for _, t := range []engine.Ticker{h, h.l1, x, l2, dp} {
		h.eng.Register(t)
	}
	return h
}

func (h *hierarchy) Name() string           { return "driver" }
func (h *hierarchy) Kind() engine.ModelKind { return engine.CycleAccurate }
func (h *hierarchy) Busy() bool             { return h.next < len(h.script) }
func (h *hierarchy) SetWake(wake func())    { h.wake = wake }

// Tick offers the next two accesses of the script to the L1.
func (h *hierarchy) Tick(uint64) {
	for n := 0; n < 2 && h.next < len(h.script); n++ {
		a := h.script[h.next]
		r := h.reqs.Get()
		r.Addr, r.Write, r.Size, r.Owner = a.addr, a.write, 32, h
		if !h.l1.Accept(r) {
			mem.PutRequest(r)
			return
		}
		h.next++
	}
}

// RequestDone implements mem.Requester.
func (h *hierarchy) RequestDone(*mem.Request) { h.done++ }

// play runs the script to completion, including the write traffic nobody
// waits for.
func (h *hierarchy) play(t testing.TB, finished func() bool) {
	h.next, h.done = 0, 0
	h.wake()
	if _, err := h.eng.Run(finished, h.eng.Cycle()+1_000_000); err != nil {
		t.Fatal(err)
	}
}

// mixedStream touches 48 lines (the L1 holds 8, the L2 16) so that every
// kind of traffic occurs: a read miss on each line's first sector, a second
// read of it while the fill is in flight (MSHR merge), a store to the next
// sector (written through the L1, allocated dirty in the L2 and written
// back to DRAM when evicted), and a read of the first sector again ten
// lines later, when its fill has arrived and it is still resident (hit).
func mixedStream() []access {
	var s []access
	for line := uint64(0); line < 48; line++ {
		base := line * 128
		s = append(s, access{base, false}, access{base, false}, access{base + 32, true})
		if line >= 10 {
			s = append(s, access{base - 10*128, false})
		}
	}
	return s
}

// TestTimedPathSteadyStateAllocatesNothing is the gate on the per-request
// allocations this path used to make (a closure per fetch, per completion
// and per NoC hop, an MSHR entry per miss, a slice regrowth per queue):
// once the store and rings have reached their working size, a replay of the
// stream allocates nothing at all.
func TestTimedPathSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h := newHierarchy()
	h.script = mixedStream()
	finished := func() bool { return h.done == len(h.script) && h.eng.Quiescent() }
	for i := 0; i < 3; i++ {
		h.play(t, finished)
	}
	for _, c := range []string{"l1.read_hit", "l1.read_miss", "l1.mshr_merge", "l1.write",
		"noc.request", "l2.miss", "l2.eviction", "l2.writeback", "dram.read", "dram.write"} {
		if h.g.Value(c) == 0 {
			t.Errorf("the stream never exercised %s", c)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { h.play(t, finished) }); allocs != 0 {
		t.Errorf("steady-state replay of %d requests allocated %v objects, want 0", len(h.script), allocs)
	}
}

// TestLiteralRequestCrossesHierarchyOnce: a request an outside caller built
// with a literal goes down L1 → NoC → L2 → DRAM and back, fires its Done
// exactly once, and is never recycled into a store.
func TestLiteralRequestCrossesHierarchyOnce(t *testing.T) {
	h := newHierarchy()
	fired := 0
	r := &mem.Request{Addr: 0x4020, Size: 32, PC: 0x88, SMID: 3, Done: func() { fired++ }}
	if !h.l1.Accept(r) {
		t.Fatal("Accept rejected")
	}
	if _, err := h.eng.Run(func() bool { return fired > 0 && h.eng.Quiescent() }, 100000); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("Done fired %d times, want 1", fired)
	}
	if h.g.Value("dram.read") != 1 || h.g.Value("noc.request") != 1 {
		t.Errorf("dram.read/noc.request = %d/%d, want 1/1", h.g.Value("dram.read"), h.g.Value("noc.request"))
	}
	if r.ServicedBy != mem.LevelDRAM {
		t.Errorf("ServicedBy = %v, want DRAM", r.ServicedBy)
	}
	// A recycled request is zeroed and handed to the next Get; this
	// one kept its fields and is not what a store returns.
	if r.Addr != 0x4020 || r.PC != 0x88 || r.SMID != 3 || r.Done == nil {
		t.Errorf("literal request was recycled: %+v", r)
	}
	for i := 0; i < 64; i++ {
		if p := h.reqs.Get(); p == r {
			t.Fatal("literal request came back out of a store")
		}
	}
}
