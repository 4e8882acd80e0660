package noc

import (
	"testing"

	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
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
