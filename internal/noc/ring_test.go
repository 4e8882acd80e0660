package noc

import (
	"fmt"
	"testing"

	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/snap"
)

func ringSetup(numSMs, nParts int, hopLat uint64, bisection int) (*engine.Engine, *Ring, []*sink, *metrics.Gatherer) {
	eng := engine.New()
	g := metrics.New()
	sinks := make([]*sink, nParts)
	ports := make([]mem.Port, nParts)
	for i := range sinks {
		sinks[i] = &sink{eng: eng, latency: 10}
		ports[i] = sinks[i]
	}
	mapAddr := func(addr uint64) int { return int((addr / 32) % uint64(nParts)) }
	r := NewRing("ring", eng, numSMs, ports, mapAddr, hopLat, bisection, g)
	eng.Register(r)
	return eng, r, sinks, g
}

func TestRingRoutesAndCompletes(t *testing.T) {
	eng, r, sinks, g := ringSetup(8, 4, 1, 8)
	done := 0
	for i := 0; i < 4; i++ {
		req := &mem.Request{Addr: uint64(i) * 32, SMID: i, Size: 32, Done: func() { done++ }}
		if !r.Accept(req) {
			t.Fatal("Accept rejected")
		}
	}
	if _, err := eng.Run(func() bool { return done == 4 }, 100000); err != nil {
		t.Fatal(err)
	}
	for i, s := range sinks {
		if len(s.accepted) != 1 {
			t.Errorf("partition %d received %d, want 1", i, len(s.accepted))
		}
	}
	if g.Value("ring.hops") == 0 {
		t.Error("no hops recorded")
	}
}

func TestRingDistanceMattersForLatency(t *testing.T) {
	// A request between nearby nodes completes sooner than one across
	// the ring.
	measure := func(smID int) uint64 {
		eng, r, _, _ := ringSetup(16, 2, 4, 8)
		done := false
		req := &mem.Request{Addr: 0, SMID: smID, Size: 32, Done: func() { done = true }}
		if !r.Accept(req) {
			t.Fatal("Accept rejected")
		}
		cyc, err := eng.Run(func() bool { return done }, 100000)
		if err != nil {
			t.Fatal(err)
		}
		return cyc
	}
	// Partition 0 sits near position 1; SM 0 is at position 0, SM 8
	// halfway around an 18-node ring.
	near, far := measure(0), measure(8)
	if far <= near {
		t.Errorf("far request (%d cycles) not slower than near request (%d)", far, near)
	}
}

func TestRingBisectionBound(t *testing.T) {
	_, r, _, g := ringSetup(8, 4, 1, 2)
	accepted := 0
	for i := 0; i < 6; i++ {
		req := &mem.Request{Addr: uint64(i) * 32, SMID: i, Size: 32}
		if r.Accept(req) {
			accepted++
		}
	}
	if accepted != 2 {
		t.Errorf("accepted = %d, want 2 (bisection budget)", accepted)
	}
	if g.Value("ring.stall") == 0 {
		t.Error("no stalls recorded")
	}
}

func TestRingBudgetRefreshesPerTick(t *testing.T) {
	eng, r, _, _ := ringSetup(8, 4, 1, 1)
	if !r.Accept(&mem.Request{Addr: 0, SMID: 0, Size: 32}) {
		t.Fatal("first inject rejected")
	}
	if r.Accept(&mem.Request{Addr: 32, SMID: 1, Size: 32}) {
		t.Fatal("second inject same cycle accepted")
	}
	r.Tick(eng.Cycle() + 1)
	if !r.Accept(&mem.Request{Addr: 32, SMID: 1, Size: 32}) {
		t.Fatal("inject after budget refresh rejected")
	}
}

func TestRingHops(t *testing.T) {
	r := &Ring{nodes: 10}
	cases := []struct{ a, b, want int }{
		{0, 1, 1}, {0, 5, 5}, {0, 9, 1}, {2, 8, 4}, {3, 3, 1},
	}
	for _, c := range cases {
		if got := r.hops(c.a, c.b); got != c.want {
			t.Errorf("hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRingPositionsInRange(t *testing.T) {
	for _, cfg := range []struct{ sms, parts int }{{68, 22}, {8, 4}, {1, 1}, {28, 12}} {
		eng := engine.New()
		g := metrics.New()
		ports := make([]mem.Port, cfg.parts)
		for i := range ports {
			ports[i] = mem.PortFunc(func(*mem.Request) bool { return true })
		}
		r := NewRing("ring", eng, cfg.sms, ports, func(uint64) int { return 0 }, 1, 4, g)
		for s := 0; s < cfg.sms; s++ {
			if p := r.smPos(s); p < 0 || p >= r.nodes {
				t.Fatalf("smPos(%d) = %d out of [0,%d)", s, p, r.nodes)
			}
		}
		for p := 0; p < cfg.parts; p++ {
			if pos := r.partPos(p); pos < 0 || pos >= r.nodes {
				t.Fatalf("partPos(%d) = %d out of [0,%d)", p, pos, r.nodes)
			}
		}
	}
}

func TestRingWritesNoReturn(t *testing.T) {
	eng, r, sinks, _ := ringSetup(4, 2, 1, 4)
	w := &mem.Request{Addr: 0, Write: true, SMID: 0, Size: 32}
	if !r.Accept(w) {
		t.Fatal("write rejected")
	}
	idle := func() bool { return !r.Busy() && len(sinks[0].accepted) == 1 }
	if _, err := eng.Run(idle, 100000); err != nil {
		t.Fatal(err)
	}
}

// TestRingMatchesIndexLoop: a ring queue's entries come from SMs at
// different distances, so a later entry can arrive before the head; with
// partition ports refusing in bursts, the drain through occupancy bits and
// head cycles must accept, refuse and deliver exactly what the index loop
// does, in the same cycles.
func TestRingMatchesIndexLoop(t *testing.T) {
	overtaken := false
	for seed := int64(1); seed <= 3; seed++ {
		build := func(index bool) func(*engine.Engine, []mem.Port, *metrics.Gatherer) (mem.Port, *link) {
			return func(eng *engine.Engine, ports []mem.Port, g *metrics.Gatherer) (mem.Port, *link) {
				mapAddr := func(addr uint64) int { return int(addr / 32 % uint64(len(ports))) }
				r := NewRing("ring", eng, 24, ports, mapAddr, 2, 3, g)
				if index {
					eng.Register(&indexTicker{Ticker: r, l: &r.link, ring: r, fwdMax: queueCap, retMax: 1})
					return r, &r.link
				}
				eng.Register(r)
				// Record whether an accepted request ever arrives before
				// the head of the queue it joins.
				return mem.PortFunc(func(req *mem.Request) bool {
					dst := mapAddr(req.Addr)
					ready := eng.Cycle() + uint64(r.hops(r.smPos(req.SMID), r.partPos(dst)))*r.hopLatency
					if !r.Accept(req) {
						return false
					}
					if r.fwd[dst].Len() > 1 && ready < r.fwdHead[dst] {
						overtaken = true
					}
					return true
				}), &r.link
			}
		}
		equalLogs(t, fmt.Sprintf("seed %d", seed), driveNoC(t, seed, 3, false, build(false)), driveNoC(t, seed, 3, true, build(true)))
	}
	if !overtaken {
		t.Error("no ring queue ever held an entry arriving before its head")
	}
}

// TestLoadedCheckpointSetsHeads: a ring saved with writes queued toward a
// refusing partition loads into a fresh ring whose head cycles are those of
// the queues it loads, and both deliver every write in the same cycles.
func TestLoadedCheckpointSetsHeads(t *testing.T) {
	run := func(r *Ring, sinks []*sink) []string {
		var got []string
		for cycle := uint64(0); cycle < 64; cycle++ {
			before := len(sinks[0].accepted) + len(sinks[1].accepted)
			r.Tick(cycle)
			if n := len(sinks[0].accepted) + len(sinks[1].accepted); n != before {
				got = append(got, fmt.Sprintf("%d: %d delivered", cycle, n-before))
			}
		}
		return got
	}
	_, saved, savedSinks, _ := ringSetup(16, 2, 3, 32)
	for _, s := range savedSinks {
		s.refuse = true
	}
	for i := 0; i < 12; i++ {
		if !saved.Accept(&mem.Request{Addr: uint64(i) * 32, SMID: 15 - i, Size: 32, Write: true}) {
			t.Fatal("write refused")
		}
	}
	b, err := snap.Save(saved.Snap)
	if err != nil {
		t.Fatal(err)
	}
	_, loaded, loadedSinks, _ := ringSetup(16, 2, 3, 32)
	for i := range loaded.fwdHead {
		loaded.fwdHead[i] = ^uint64(0) // a head cycle the load must overwrite
	}
	if err := snap.Load(b, loaded.Snap); err != nil {
		t.Fatal(err)
	}
	for i := range saved.fwd {
		if saved.fwd[i].Len() == 0 || loaded.fwdHead[i] != saved.fwdHead[i] {
			t.Errorf("queue %d: %d entries, head cycle %d loaded, %d saved", i, saved.fwd[i].Len(), loaded.fwdHead[i], saved.fwdHead[i])
		}
	}
	for _, s := range savedSinks {
		s.refuse = false
	}
	want, got := run(saved, savedSinks), run(loaded, loadedSinks)
	if fmt.Sprint(got) != fmt.Sprint(want) || len(want) == 0 {
		t.Errorf("loaded ring delivered %v, saved ring %v", got, want)
	}
}
