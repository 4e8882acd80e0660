package noc

import (
	"fmt"
	"testing"

	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
)

// sink is a target port that completes reads after a fixed latency.
type sink struct {
	eng      *engine.Engine
	latency  uint64
	accepted []*mem.Request
	refuse   bool
	onAccept func() // called for each request accepted, when set
}

func (s *sink) Accept(r *mem.Request) bool {
	if s.refuse {
		return false
	}
	s.accepted = append(s.accepted, r)
	if s.onAccept != nil {
		s.onAccept()
	}
	if !r.Write {
		s.eng.Schedule(s.latency, func() {
			r.Complete(mem.LevelL2)
		})
	}
	return true
}

func setup(nParts int, latency uint64, perCycle int) (*engine.Engine, *Crossbar, []*sink, *metrics.Gatherer) {
	eng := engine.New()
	g := metrics.New()
	sinks := make([]*sink, nParts)
	ports := make([]mem.Port, nParts)
	for i := range sinks {
		sinks[i] = &sink{eng: eng, latency: 10}
		ports[i] = sinks[i]
	}
	mapAddr := func(addr uint64) int { return int((addr / 32) % uint64(nParts)) }
	x := NewCrossbar("noc", eng, ports, mapAddr, latency, perCycle, g)
	eng.Register(x)
	return eng, x, sinks, g
}

func TestCrossbarRoutesByAddress(t *testing.T) {
	eng, x, sinks, _ := setup(4, 2, 1)
	done := 0
	for i := 0; i < 4; i++ {
		r := &mem.Request{Addr: uint64(i) * 32, Size: 32, Done: func() { done++ }}
		if !x.Accept(r) {
			t.Fatal("Accept rejected")
		}
	}
	if _, err := eng.Run(func() bool { return done == 4 }, 10000); err != nil {
		t.Fatal(err)
	}
	for i, s := range sinks {
		if len(s.accepted) != 1 {
			t.Errorf("partition %d received %d requests, want 1", i, len(s.accepted))
		}
	}
}

func TestCrossbarRoundTripLatency(t *testing.T) {
	eng, x, _, _ := setup(1, 5, 1)
	done := false
	r := &mem.Request{Addr: 0, Size: 32, Done: func() { done = true }}
	x.Accept(r)
	cyc, err := eng.Run(func() bool { return done }, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// Forward latency 5 + sink 10 + return latency 5, plus queue ticks.
	if cyc < 20 {
		t.Errorf("round trip = %d cycles, want >= 20", cyc)
	}
	if cyc > 26 {
		t.Errorf("round trip = %d cycles, want about 20-26", cyc)
	}
}

func TestCrossbarBandwidthContention(t *testing.T) {
	// Two requests to the same partition with perCycle=1 serialize; with
	// perCycle=2 they don't.
	measure := func(perCycle int) uint64 {
		eng, x, _, _ := setup(1, 1, perCycle)
		done := 0
		for i := 0; i < 8; i++ {
			r := &mem.Request{Addr: uint64(i) * 64, Size: 32, Done: func() { done++ }}
			if !x.Accept(r) {
				t.Fatal("Accept rejected")
			}
		}
		cyc, err := eng.Run(func() bool { return done == 8 }, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return cyc
	}
	narrow, wide := measure(1), measure(4)
	if narrow <= wide {
		t.Errorf("narrow NoC (%d cycles) not slower than wide NoC (%d cycles)", narrow, wide)
	}
}

func TestCrossbarBackpressure(t *testing.T) {
	eng, x, sinks, g := setup(1, 1, 1)
	sinks[0].refuse = true
	offer := func(n int) (accepted int) {
		for i := 0; i < n; i++ {
			if x.Accept(&mem.Request{Addr: 0, Write: true, Size: 32}) {
				accepted++
			}
		}
		return accepted
	}
	if got := offer(queueCap + 10); got != queueCap {
		t.Errorf("accepted = %d, want %d", got, queueCap)
	}
	if got := g.Value("noc.stall"); got != 10 {
		t.Errorf("noc.stall = %d, want 10 (messages %d.. refused)", got, queueCap+1)
	}
	// The bound holds with the ring's head mid-array: deliver five (one a
	// cycle), then offer a full round again.
	sinks[0].refuse = false
	if _, err := eng.Run(func() bool { return len(sinks[0].accepted) == 5 }, 100); err != nil {
		t.Fatal(err)
	}
	stalls := g.Value("noc.stall")
	if got := offer(queueCap); got != 5 {
		t.Errorf("accepted after delivering 5 = %d, want 5", got)
	}
	if got := g.Value("noc.stall") - stalls; got != queueCap-5 {
		t.Errorf("noc.stall grew by %d, want %d", got, queueCap-5)
	}
}

func TestCrossbarTargetRefusalRetries(t *testing.T) {
	eng, x, sinks, _ := setup(1, 1, 1)
	sinks[0].refuse = true
	done := false
	r := &mem.Request{Addr: 0, Size: 32, Done: func() { done = true }}
	x.Accept(r)
	// Run a while with the target refusing: request must not be lost.
	eng.Schedule(50, func() { sinks[0].refuse = false })
	if _, err := eng.Run(func() bool { return done }, 10000); err != nil {
		t.Fatal(err)
	}
	if len(sinks[0].accepted) != 1 {
		t.Errorf("target received %d requests, want 1", len(sinks[0].accepted))
	}
}

func TestCrossbarWritesNoReturnPath(t *testing.T) {
	eng, x, sinks, _ := setup(1, 1, 1)
	w := &mem.Request{Addr: 0, Write: true, Size: 32}
	x.Accept(w)
	// Writes have no Done: the crossbar must go idle after delivery.
	idle := func() bool { return !x.Busy() && len(sinks[0].accepted) == 1 }
	if _, err := eng.Run(idle, 10000); err != nil {
		t.Fatal(err)
	}
}

func TestCrossbarBusyLifecycle(t *testing.T) {
	eng, x, _, _ := setup(1, 1, 1)
	if x.Busy() {
		t.Fatal("fresh crossbar busy")
	}
	done := false
	r := &mem.Request{Addr: 0, Size: 32, Done: func() { done = true }}
	x.Accept(r)
	if !x.Busy() {
		t.Fatal("crossbar with queued request idle")
	}
	if _, err := eng.Run(func() bool { return done }, 10000); err != nil {
		t.Fatal(err)
	}
	if x.Busy() {
		t.Error("crossbar busy after completion")
	}
}

// TestCrossbarDrainsOccupiedQueuesInOrder: with more partitions than one
// occupancy word holds, a drain still visits the occupied queues in
// ascending partition order, both ways, and clears every bit once the
// queues are empty.
func TestCrossbarDrainsOccupiedQueuesInOrder(t *testing.T) {
	const parts = 130 // three occupancy words
	eng, x, sinks, _ := setup(parts, 2, 1)
	var fwd, ret []int
	for i, s := range sinks {
		s.onAccept = func() { fwd = append(fwd, i) }
	}
	for _, dst := range []int{129, 0, 64, 63, 65, 7, 128} {
		r := &mem.Request{Addr: uint64(dst) * 32, Size: 32, Done: func() { ret = append(ret, dst) }}
		if !x.Accept(r) {
			t.Fatal("Accept rejected")
		}
	}
	if _, err := eng.Run(func() bool { return len(ret) == 7 }, 10000); err != nil {
		t.Fatal(err)
	}
	want := "[0 7 63 64 65 128 129]"
	if fmt.Sprint(fwd) != want || fmt.Sprint(ret) != want {
		t.Errorf("forward order %v, return order %v, want %s both ways", fwd, ret, want)
	}
	for w := range x.fwdOcc {
		if x.fwdOcc[w] != 0 || x.retOcc[w] != 0 {
			t.Errorf("word %d: occupancy %x/%x left set with every queue empty", w, x.fwdOcc[w], x.retOcc[w])
		}
	}
}
