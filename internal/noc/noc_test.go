package noc

import (
	"fmt"
	"math/rand"
	"strings"
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

// indexDrain is the drain before the occupancy bits and head cycles: every
// queue, both ways, in ascending index order, each read afresh.
func indexDrain(l *link, cycle uint64, fwdMax, retMax int) {
	for dst := range l.fwd {
		q := &l.fwd[dst]
		for n := 0; n < fwdMax && q.Len() > 0; n++ {
			head := q.Front()
			if head.ready > cycle {
				break
			}
			if !l.targets[dst].Accept(head.r) {
				l.stalls.Inc()
				break
			}
			q.Pop()
			l.busyCnt--
		}
	}
	for src := range l.ret {
		q := &l.ret[src]
		for n := 0; n < retMax && q.Len() > 0; n++ {
			if q.Front().ready > cycle {
				break
			}
			head := q.Pop()
			l.busyCnt--
			head.r.Deliver()
		}
	}
}

// indexTicker registers an interconnect with the engine but ticks it with
// indexDrain.
type indexTicker struct {
	engine.Ticker
	l              *link
	ring           *Ring // nil for a crossbar
	fwdMax, retMax int
}

func (it *indexTicker) Tick(cycle uint64) {
	if it.ring != nil {
		it.ring.injected = 0
	}
	indexDrain(it.l, cycle, it.fwdMax, it.retMax)
}

// logSink is a partition port that logs what it accepts, refuses while
// refuse says so, and completes reads after a latency that varies with the
// address.
type logSink struct {
	eng    *engine.Engine
	part   int
	log    *[]string
	refuse func(cycle uint64) bool
}

func (s *logSink) Accept(r *mem.Request) bool {
	if s.refuse(s.eng.Cycle()) {
		*s.log = append(*s.log, fmt.Sprintf("%d refuse p%d %#x", s.eng.Cycle(), s.part, r.Addr))
		return false
	}
	*s.log = append(*s.log, fmt.Sprintf("%d accept p%d %#x", s.eng.Cycle(), s.part, r.Addr))
	if !r.Write {
		s.eng.Schedule(5+r.Addr/32%7, func() { r.Complete(mem.LevelL2) })
	}
	return true
}

// driveNoC offers a seeded stream of reads and writes from many SMs to a
// few partitions whose ports refuse in bursts, and returns everything that
// happened in cycle order: offers the interconnect refused, partition
// accepts and refusals, deliveries, and the final stall count. build makes
// the interconnect over the given ports and registers it; index says it
// ticks with indexDrain, which keeps no head cycles to check.
func driveNoC(t *testing.T, seed int64, parts int, index bool, build func(eng *engine.Engine, ports []mem.Port, g *metrics.Gatherer) (mem.Port, *link)) []string {
	t.Helper()
	eng, g := engine.New(), metrics.New()
	var log []string
	ports := make([]mem.Port, parts)
	for i := range ports {
		ports[i] = &logSink{eng: eng, part: i, log: &log, refuse: func(c uint64) bool { return (c/9+uint64(i))%4 == 0 }}
	}
	x, l := build(eng, ports, g)
	rng := rand.New(rand.NewSource(seed))
	const offers = 600
	fired, reads := 0, 0
	for i := 0; i < offers; i++ {
		addr := uint64(rng.Intn(1<<12)) &^ 31
		req := &mem.Request{Addr: addr, SMID: rng.Intn(24), Size: 32, Write: rng.Intn(4) == 0}
		if !req.Write {
			req.Done = func() { log = append(log, fmt.Sprintf("%d deliver %#x", eng.Cycle(), addr)); reads-- }
		}
		eng.Schedule(uint64(i/3), func() {
			fired++
			if !x.Accept(req) {
				log = append(log, fmt.Sprintf("%d full %#x", eng.Cycle(), addr))
			} else if !req.Write {
				reads++
			}
			if !index {
				checkHeads(t, l)
			}
		})
	}
	if _, err := eng.Run(func() bool {
		if !index {
			checkHeads(t, l)
		}
		return fired == offers && reads == 0 && !l.Busy()
	}, 100000); err != nil {
		t.Fatal(err)
	}
	return append(log, fmt.Sprintf("stalls %d", l.stalls.Value()))
}

// checkHeads fails unless every occupied queue's head cycle is its head's
// ready cycle. A stale head cycle below it would only cost visits, so the
// delivery logs alone cannot see one.
func checkHeads(t *testing.T, l *link) {
	t.Helper()
	for _, d := range []struct {
		name string
		qs   []mem.FIFO[entry]
		head []uint64
	}{{"forward", l.fwd, l.fwdHead}, {"return", l.ret, l.retHead}} {
		for i := range d.qs {
			if d.qs[i].Len() > 0 && d.head[i] != d.qs[i].Front().ready {
				t.Fatalf("%s queue %d: head cycle %d, head ready at %d", d.name, i, d.head[i], d.qs[i].Front().ready)
			}
		}
	}
}

// TestCrossbarMatchesIndexLoop: partition ports that refuse in bursts hold
// queue heads that have arrived, and skipped heads that have not; the drain
// through occupancy bits and head cycles must accept, refuse and deliver
// exactly what the index loop does, in the same cycles.
func TestCrossbarMatchesIndexLoop(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		build := func(index bool) func(*engine.Engine, []mem.Port, *metrics.Gatherer) (mem.Port, *link) {
			return func(eng *engine.Engine, ports []mem.Port, g *metrics.Gatherer) (mem.Port, *link) {
				mapAddr := func(addr uint64) int { return int(addr / 32 % uint64(len(ports))) }
				x := NewCrossbar("noc", eng, ports, mapAddr, 3, 2, g)
				if index {
					eng.Register(&indexTicker{Ticker: x, l: &x.link, fwdMax: 2, retMax: 2})
				} else {
					eng.Register(x)
				}
				return x, &x.link
			}
		}
		equalLogs(t, fmt.Sprintf("seed %d", seed), driveNoC(t, seed, 3, false, build(false)), driveNoC(t, seed, 3, true, build(true)))
	}
}

// equalLogs fails at the first line where the two runs part, and checks
// that some partition refused a queue head in the reference run.
func equalLogs(t *testing.T, what string, got, want []string) {
	t.Helper()
	if !strings.Contains(strings.Join(want, "\n"), "refuse") {
		t.Fatalf("%s: no partition ever refused a queue head", what)
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s: line %d of %d: got %q, index loop %q", what, i, len(want), g, w)
		}
	}
}
