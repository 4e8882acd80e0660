package noc

import (
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/obs"
)

// Ring is an alternative cycle-accurate interconnect: SMs and memory
// partitions sit on a bidirectional ring, a message traverses
// shortest-path hops at hopLatency cycles per hop, and the ring's
// bisection bounds aggregate injection per cycle.
//
// The paper criticizes queueing-theory NoC models because "when the NoC
// topology changes, a new analytical model has to be created". Here the
// topology is just another module implementation behind the same mem.Port
// interface: assemblies switch between Crossbar and Ring with one
// configuration key (gpu.noc_topology) and nothing else changes.
type Ring struct {
	name       string
	eng        *engine.Engine
	wake       func() // engine activation callback (nil when standalone)
	hopLatency uint64
	nodes      int // ring positions (SM count + partition count)
	bisection  int // messages accepted onto the ring per cycle
	targets    []mem.Port
	mapAddr    func(addr uint64) int
	smPos      func(smID int) int
	partPos    func(part int) int

	fwd []mem.FIFO[entry] // per-destination-partition queues, queueCap deep
	ret []mem.FIFO[entry] // per-source-partition response queues

	requests *metrics.Counter
	stalls   *metrics.Counter
	hopsAcc  *metrics.Counter
	busyCnt  int
	injected int // messages injected this cycle (bisection budget)

	tr    *obs.Tracer
	trTid int32
	trOn  bool
}

// SetTracer installs the ring's tracer (nil for off) and registers its
// trace track; traversal spans are emitted at RequestLevel.
func (r *Ring) SetTracer(t *obs.Tracer) {
	r.tr = t
	r.trOn = t.Enabled(obs.RequestLevel)
	if r.trOn {
		r.trTid = t.RegisterTrack(r.name)
	}
}

// Occupancy returns the number of messages currently in flight on the
// ring (both directions).
func (r *Ring) Occupancy() int { return r.busyCnt }

// NewRing builds a ring over numSMs SM nodes and the target partitions,
// interleaved evenly around the ring. mapAddr maps sector addresses to
// partition indices; hopLatency is the per-hop traversal cost; bisection
// the per-cycle injection budget.
func NewRing(name string, eng *engine.Engine, numSMs int, targets []mem.Port, mapAddr func(uint64) int, hopLatency uint64, bisection int, g *metrics.Gatherer) *Ring {
	if bisection < 1 {
		bisection = 1
	}
	parts := len(targets)
	nodes := numSMs + parts
	r := &Ring{
		name:       name,
		eng:        eng,
		hopLatency: hopLatency,
		nodes:      nodes,
		bisection:  bisection,
		targets:    targets,
		mapAddr:    mapAddr,
		fwd:        make([]mem.FIFO[entry], parts),
		ret:        make([]mem.FIFO[entry], parts),
		requests:   g.Counter(name + ".request"),
		stalls:     g.Counter(name + ".stall"),
		hopsAcc:    g.Counter(name + ".hops"),
	}
	// SMs and partitions are each spread evenly around the ring, so
	// request distances are balanced and average ≈ nodes/4.
	r.smPos = func(smID int) int {
		if numSMs == 0 {
			return 0
		}
		return (smID % numSMs) * nodes / numSMs
	}
	r.partPos = func(part int) int {
		return (part*nodes/parts + 1) % nodes
	}
	return r
}

// hops returns the shortest ring distance between two positions.
func (r *Ring) hops(a, b int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if alt := r.nodes - d; alt < d {
		d = alt
	}
	if d == 0 {
		d = 1
	}
	return d
}

// Name implements engine.Module.
func (r *Ring) Name() string { return r.name }

// Kind implements engine.Module.
func (r *Ring) Kind() engine.ModelKind { return engine.CycleAccurate }

// Busy implements engine.Ticker.
func (r *Ring) Busy() bool { return r.busyCnt > 0 }

// SetWake implements engine.Ticker: the ring is ticked only while
// messages are in flight. Any message since the last tick re-activates it,
// so the per-tick bisection-budget reset still happens before the next
// cycle's injections, exactly as when it was ticked unconditionally.
func (r *Ring) SetWake(wake func()) { r.wake = wake }

// Accept implements mem.Port: inject a request onto the ring, bounded by
// queue capacity and the cycle's bisection budget.
func (r *Ring) Accept(req *mem.Request) bool {
	dst := r.mapAddr(req.Addr)
	if r.fwd[dst].Len() >= queueCap || r.injected >= r.bisection {
		r.stalls.Inc()
		return false
	}
	r.injected++
	h := r.hops(r.smPos(req.SMID), r.partPos(dst))
	r.hopsAcc.Add(uint64(h))
	r.requests.Inc()
	e := entry{r: req, ready: r.eng.Cycle() + uint64(h)*r.hopLatency}
	if r.trOn {
		e.enq = r.eng.Cycle()
	}
	if req.WantsReply() {
		req.Via(r, dst)
	}
	r.fwd[dst].Push(e)
	r.busyCnt++
	if r.wake != nil {
		r.wake()
	}
	return true
}

// Return implements mem.Hop: a completed request travels from the
// partition it was routed to back to its SM.
func (r *Ring) Return(req *mem.Request, src int) {
	h := r.hops(r.partPos(src), r.smPos(req.SMID))
	e := entry{r: req, ready: r.eng.Cycle() + uint64(h)*r.hopLatency}
	if r.trOn {
		e.enq = r.eng.Cycle()
	}
	r.ret[src].Push(e)
	r.busyCnt++
	if r.wake != nil {
		r.wake()
	}
}

// Tick implements engine.Ticker: refresh the bisection budget, deliver
// arrived requests to partitions, and drain responses.
func (r *Ring) Tick(cycle uint64) {
	r.injected = 0
	for dst := range r.fwd {
		q := &r.fwd[dst]
		for q.Len() > 0 {
			head := q.Front()
			if head.ready > cycle {
				break
			}
			if !r.targets[dst].Accept(head.r) {
				r.stalls.Inc()
				break
			}
			if r.trOn {
				r.emitSpan("fwd", &head, cycle)
			}
			q.Pop()
			r.busyCnt--
		}
	}
	for src := range r.ret {
		// One response per partition per cycle leaves the ring.
		q := &r.ret[src]
		if q.Len() == 0 || q.Front().ready > cycle {
			continue
		}
		head := q.Pop()
		r.busyCnt--
		if r.trOn {
			// Emit before Deliver, which may recycle the request.
			r.emitSpan("ret", &head, cycle)
		}
		head.r.Deliver()
	}
}

func (r *Ring) emitSpan(dir string, e *entry, cycle uint64) {
	r.tr.Emit(obs.Event{Name: dir, Cat: "noc", Ph: obs.PhaseSpan,
		Ts: e.enq, Dur: cycle - e.enq, Tid: r.trTid,
		Arg1Name: "addr", Arg1: e.r.Addr})
}
