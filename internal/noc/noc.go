// Package noc implements the on-chip interconnect between the SMs' L1
// caches and the L2 slices in the memory partitions: a crossbar with
// per-destination queues, a fixed traversal latency, and bounded
// per-cycle bandwidth in both directions. Contention appears as queueing
// delay and as backpressure toward the L1s — the NoC stall cycles the
// Metrics Gatherer reports come from here.
//
// The paper criticizes queueing-model NoCs in analytical simulators for
// being hard to retarget to new topologies; this module is the
// cycle-accurate alternative that Swift-Sim assemblies keep when the NoC is
// the component under study.
package noc

import (
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/obs"
)

// queueCap bounds each per-destination queue; Accept exerts backpressure
// beyond it.
const queueCap = 32

type entry struct {
	r     *mem.Request
	ready uint64 // cycle at which the traversal latency has elapsed
	enq   uint64 // enqueue cycle, stamped only while tracing at RequestLevel
}

// Crossbar is a cycle-accurate SM↔partition crossbar. One instance handles
// both directions: requests flow to partition ports, and a request somebody
// waits for is marked (mem.Request.Via) so that its completion comes back
// through Return and is delivered to the requesting L1 after the return
// traversal.
type Crossbar struct {
	name     string
	eng      *engine.Engine
	wake     func() // engine activation callback (nil when standalone)
	latency  uint64
	perCycle int // requests per destination per cycle
	targets  []mem.Port
	mapAddr  func(addr uint64) int

	fwd []mem.FIFO[entry] // per-destination request queues, queueCap deep
	ret []mem.FIFO[entry] // per-source-partition response queues

	requests *metrics.Counter
	stalls   *metrics.Counter
	busyCnt  int

	tr    *obs.Tracer
	trTid int32
	trOn  bool
}

// SetTracer installs the crossbar's tracer (nil for off) and registers
// its trace track. Traversal spans (enqueue → delivery) are emitted at
// RequestLevel for both network directions.
func (x *Crossbar) SetTracer(t *obs.Tracer) {
	x.tr = t
	x.trOn = t.Enabled(obs.RequestLevel)
	if x.trOn {
		x.trTid = t.RegisterTrack(x.name)
	}
}

// Occupancy returns the number of messages currently in flight on the
// network (both directions) — the NoC column of the counter timeline.
func (x *Crossbar) Occupancy() int { return x.busyCnt }

// NewCrossbar builds a crossbar delivering to targets (one port per memory
// partition). mapAddr maps a sector address to its partition index; latency
// is the one-way traversal in cycles; perCycle the per-destination
// per-cycle throughput.
func NewCrossbar(name string, eng *engine.Engine, targets []mem.Port, mapAddr func(uint64) int, latency uint64, perCycle int, g *metrics.Gatherer) *Crossbar {
	if perCycle <= 0 {
		perCycle = 1
	}
	return &Crossbar{
		name:     name,
		eng:      eng,
		latency:  latency,
		perCycle: perCycle,
		targets:  targets,
		mapAddr:  mapAddr,
		fwd:      make([]mem.FIFO[entry], len(targets)),
		ret:      make([]mem.FIFO[entry], len(targets)),
		requests: g.Counter(name + ".request"),
		stalls:   g.Counter(name + ".stall"),
	}
}

// Name implements engine.Module.
func (x *Crossbar) Name() string { return x.name }

// Kind implements engine.Module.
func (x *Crossbar) Kind() engine.ModelKind { return engine.CycleAccurate }

// Busy implements engine.Ticker.
func (x *Crossbar) Busy() bool { return x.busyCnt > 0 }

// SetWake implements engine.Ticker: the crossbar is ticked only while
// flits are in flight. Accept (forward path) and Return (return path,
// reached from completion events while the crossbar may be idle) both
// re-activate it.
func (x *Crossbar) SetWake(wake func()) { x.wake = wake }

// Accept implements mem.Port: requests enter the forward network.
func (x *Crossbar) Accept(r *mem.Request) bool {
	dst := x.mapAddr(r.Addr)
	if x.fwd[dst].Len() >= queueCap {
		x.stalls.Inc()
		return false
	}
	x.requests.Inc()
	e := entry{r: r, ready: x.eng.Cycle() + x.latency}
	if x.trOn {
		e.enq = x.eng.Cycle()
	}
	if r.WantsReply() {
		// Interpose on the response path: when the memory side
		// completes the request, it travels back through the return
		// network before the L1 sees it.
		r.Via(x, dst)
	}
	x.fwd[dst].Push(e)
	x.busyCnt++
	if x.wake != nil {
		x.wake()
	}
	return true
}

// Return implements mem.Hop: it enqueues a completed request on the return
// network of the partition it was routed to.
func (x *Crossbar) Return(r *mem.Request, src int) {
	// The return queue is not backpressured toward the L2 (responses in
	// real hardware use a separate virtual network with guaranteed
	// sinking); bandwidth is still bounded per cycle at drain time.
	e := entry{r: r, ready: x.eng.Cycle() + x.latency}
	if x.trOn {
		e.enq = x.eng.Cycle()
	}
	x.ret[src].Push(e)
	x.busyCnt++
	if x.wake != nil {
		x.wake()
	}
}

// Tick implements engine.Ticker: move up to perCycle ready entries per
// destination into the target ports, and drain up to perCycle responses per
// source partition.
func (x *Crossbar) Tick(cycle uint64) {
	for dst := range x.fwd {
		q := &x.fwd[dst]
		for n := 0; n < x.perCycle && q.Len() > 0; n++ {
			head := q.Front()
			if head.ready > cycle {
				break
			}
			if !x.targets[dst].Accept(head.r) {
				x.stalls.Inc()
				break
			}
			if x.trOn {
				x.emitSpan("fwd", &head, cycle)
			}
			q.Pop()
			x.busyCnt--
		}
	}
	for src := range x.ret {
		q := &x.ret[src]
		for n := 0; n < x.perCycle && q.Len() > 0; n++ {
			if q.Front().ready > cycle {
				break
			}
			head := q.Pop()
			x.busyCnt--
			if x.trOn {
				// Emit before Deliver, which may recycle the request.
				x.emitSpan("ret", &head, cycle)
			}
			head.r.Deliver()
		}
	}
}

func (x *Crossbar) emitSpan(dir string, e *entry, cycle uint64) {
	x.tr.Emit(obs.Event{Name: dir, Cat: "noc", Ph: obs.PhaseSpan,
		Ts: e.enq, Dur: cycle - e.enq, Tid: x.trTid,
		Arg1Name: "addr", Arg1: e.r.Addr})
}
