package noc

import (
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
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
	link
	hopLatency uint64
	nodes      int // ring positions (SM count + partition count)
	bisection  int // messages accepted onto the ring per cycle
	smPos      func(smID int) int
	partPos    func(part int) int

	hopsAcc  *metrics.Counter
	injected int // messages injected this cycle (bisection budget)
}

// NewRing builds a ring over numSMs SM nodes and the target partitions,
// interleaved evenly around the ring. mapAddr maps sector addresses to
// partition indices; hopLatency is the per-hop traversal cost; bisection
// the per-cycle injection budget, at least 1.
func NewRing(name string, eng *engine.Engine, numSMs int, targets []mem.Port, mapAddr func(uint64) int, hopLatency uint64, bisection int, g *metrics.Gatherer) *Ring {
	parts := len(targets)
	nodes := numSMs + parts
	r := &Ring{
		link:       newLink(name, eng, targets, mapAddr, g),
		hopLatency: hopLatency,
		nodes:      nodes,
		bisection:  bisection,
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
	r.accept(r, req, dst, uint64(h)*r.hopLatency)
	return true
}

// Return implements mem.Hop: a completed request travels from the
// partition it was routed to back to its SM.
func (r *Ring) Return(req *mem.Request, src int) {
	h := r.hops(r.partPos(src), r.smPos(req.SMID))
	r.send(r.ret, r.retOcc, r.retHead, src, req, uint64(h)*r.hopLatency)
}

// Tick implements engine.Ticker: refresh the bisection budget, deliver
// arrived requests to partitions, and drain one response per partition.
// A message since the last tick re-activates the ring, so the budget is
// reset before the next cycle's injections, exactly as when the ring was
// ticked unconditionally.
func (r *Ring) Tick(cycle uint64) {
	r.injected = 0
	r.drain(cycle, queueCap, 1)
}
