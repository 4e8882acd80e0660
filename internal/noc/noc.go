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
	"math/bits"

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

// link is what both interconnects are: per-partition queues in each
// direction over the same targets, an in-flight count, and the engine
// plumbing, counters and tracing around them. Crossbar and Ring differ only
// in how long a traversal takes and how much traffic moves per cycle.
type link struct {
	name    string
	eng     *engine.Engine
	wake    func() // engine activation callback
	targets []mem.Port
	mapAddr func(addr uint64) int

	fwd []mem.FIFO[entry] // per-destination request queues, queueCap deep
	ret []mem.FIFO[entry] // per-source-partition response queues
	// fwdOcc and retOcc have bit i set while fwd[i] (ret[i]) is non-empty,
	// so a drain visits only the occupied queues.
	fwdOcc, retOcc []uint64
	// fwdHead and retHead hold, for each occupied queue, the ready cycle of
	// its head, so a drain passes over a queue whose head has not arrived
	// without reading the queue. Only the head is cached: a ring queue's
	// entries arrive out of order, since their hop counts differ. send sets
	// an entry when it fills an empty queue, drain after popping.
	fwdHead, retHead []uint64

	requests *metrics.Counter
	stalls   *metrics.Counter
	busyCnt  int

	tr    *obs.Tracer
	trTid int32
	trOn  bool
}

func newLink(name string, eng *engine.Engine, targets []mem.Port, mapAddr func(uint64) int, g *metrics.Gatherer) link {
	// One slab for the occupancy words and the head cycles of both
	// directions, one for the queues of both, and one for the queues'
	// arrays, queueCap deep: a return queue has no bound and grows past it
	// when it must.
	n, words := len(targets), (len(targets)+63)/64
	slab := make([]uint64, 2*words+2*n)
	queues := make([]mem.FIFO[entry], 2*n)
	entries := make([]entry, 2*n*queueCap)
	for i := range queues {
		queues[i] = mem.FIFOOver(entries[i*queueCap : (i+1)*queueCap : (i+1)*queueCap])
	}
	return link{
		name:     name,
		eng:      eng,
		targets:  targets,
		mapAddr:  mapAddr,
		fwd:      queues[:n:n],
		ret:      queues[n:],
		fwdOcc:   slab[:words:words],
		retOcc:   slab[words : 2*words : 2*words],
		fwdHead:  slab[2*words : 2*words+n : 2*words+n],
		retHead:  slab[2*words+n:],
		requests: g.Counter(name + ".request"),
		stalls:   g.Counter(name + ".stall"),
	}
}

// SetTracer installs the interconnect's tracer (nil for off) and registers
// its trace track. Traversal spans (enqueue → delivery) are emitted at
// RequestLevel for both network directions.
func (l *link) SetTracer(t *obs.Tracer) {
	l.tr = t
	l.trOn = t.Enabled(obs.RequestLevel)
	if l.trOn {
		l.trTid = t.RegisterTrack(l.name)
	}
}

// Occupancy returns the number of messages currently in flight on the
// network (both directions) — the NoC column of the counter timeline.
func (l *link) Occupancy() int { return l.busyCnt }

// Name implements engine.Module.
func (l *link) Name() string { return l.name }

// Kind implements engine.Module.
func (l *link) Kind() engine.ModelKind { return engine.CycleAccurate }

// Busy implements engine.Ticker.
func (l *link) Busy() bool { return l.busyCnt > 0 }

// SetWake implements engine.Ticker: the interconnect is ticked only while
// messages are in flight. Accept (forward path) and Return (return path,
// reached from completion events while it may be idle) both re-activate it.
func (l *link) SetWake(wake func()) { l.wake = wake }

// send queues r on queue i of qs, whose occupancy bits are occ and head
// cycles head, to arrive after delay cycles.
func (l *link) send(qs []mem.FIFO[entry], occ, head []uint64, i int, r *mem.Request, delay uint64) {
	e := entry{r: r, ready: l.eng.Cycle() + delay}
	if l.trOn {
		e.enq = l.eng.Cycle()
	}
	if qs[i].Len() == 0 {
		head[i] = e.ready
	}
	qs[i].Push(e)
	occ[i>>6] |= 1 << (i & 63)
	l.busyCnt++
	l.wake()
}

// accept is the forward half of Accept once the caller has admitted r to
// destination dst: a request somebody waits for is marked (mem.Request.Via)
// so that its completion comes back through Return.
func (l *link) accept(hop mem.Hop, r *mem.Request, dst int, delay uint64) {
	l.requests.Inc()
	if r.WantsReply() {
		r.Via(hop, dst)
	}
	l.send(l.fwd, l.fwdOcc, l.fwdHead, dst, r, delay)
}

// nextOccupied returns the first queue index >= i whose bit is set in occ,
// or -1. It reads the bits afresh, so a drain that visits queues through it
// sees a queue filled meanwhile exactly when an index loop would.
func nextOccupied(occ []uint64, i int) int {
	w := i >> 6
	if w >= len(occ) {
		return -1
	}
	word := occ[w] &^ (1<<(i&63) - 1)
	for word == 0 {
		if w++; w == len(occ) {
			return -1
		}
		word = occ[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// drain moves up to fwdMax ready entries per destination into the target
// ports, and delivers up to retMax ready responses per source partition.
// Queues are visited in ascending index order, the occupied ones whose head
// has arrived only; a queue left non-empty has its head cycle refreshed.
func (l *link) drain(cycle uint64, fwdMax, retMax int) {
	for dst := nextOccupied(l.fwdOcc, 0); dst >= 0; dst = nextOccupied(l.fwdOcc, dst+1) {
		if l.fwdHead[dst] > cycle {
			continue
		}
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
			if l.trOn {
				l.emitSpan("fwd", &head, cycle)
			}
			q.Pop()
			l.busyCnt--
		}
		if q.Len() == 0 {
			l.fwdOcc[dst>>6] &^= 1 << (dst & 63)
		} else {
			l.fwdHead[dst] = q.Front().ready
		}
	}
	for src := nextOccupied(l.retOcc, 0); src >= 0; src = nextOccupied(l.retOcc, src+1) {
		if l.retHead[src] > cycle {
			continue
		}
		q := &l.ret[src]
		for n := 0; n < retMax && q.Len() > 0; n++ {
			if q.Front().ready > cycle {
				break
			}
			head := q.Pop()
			l.busyCnt--
			if l.trOn {
				// Emit before Deliver, which may recycle the request.
				l.emitSpan("ret", &head, cycle)
			}
			head.r.Deliver()
		}
		if q.Len() == 0 {
			l.retOcc[src>>6] &^= 1 << (src & 63)
		} else {
			l.retHead[src] = q.Front().ready
		}
	}
}

func (l *link) emitSpan(dir string, e *entry, cycle uint64) {
	l.tr.Emit(obs.Event{Name: dir, Cat: "noc", Ph: obs.PhaseSpan,
		Ts: e.enq, Dur: cycle - e.enq, Tid: l.trTid,
		Arg1Name: "addr", Arg1: e.r.Addr})
}

// Crossbar is a cycle-accurate SM↔partition crossbar. One instance handles
// both directions: requests flow to partition ports, and a request somebody
// waits for comes back through Return and is delivered to the requesting L1
// after the return traversal.
type Crossbar struct {
	link
	latency  uint64
	perCycle int // requests per destination per cycle
}

// NewCrossbar builds a crossbar delivering to targets (one port per memory
// partition). mapAddr maps a sector address to its partition index; latency
// is the one-way traversal in cycles; perCycle the per-destination
// per-cycle throughput, at least 1.
func NewCrossbar(name string, eng *engine.Engine, targets []mem.Port, mapAddr func(uint64) int, latency uint64, perCycle int, g *metrics.Gatherer) *Crossbar {
	return &Crossbar{link: newLink(name, eng, targets, mapAddr, g), latency: latency, perCycle: perCycle}
}

// Accept implements mem.Port: requests enter the forward network.
func (x *Crossbar) Accept(r *mem.Request) bool {
	dst := x.mapAddr(r.Addr)
	if x.fwd[dst].Len() >= queueCap {
		x.stalls.Inc()
		return false
	}
	x.accept(x, r, dst, x.latency)
	return true
}

// Return implements mem.Hop: it enqueues a completed request on the return
// network of the partition it was routed to. The return queue is not
// backpressured toward the L2 (responses in real hardware use a separate
// virtual network with guaranteed sinking); bandwidth is still bounded per
// cycle at drain time.
func (x *Crossbar) Return(r *mem.Request, src int) {
	x.send(x.ret, x.retOcc, x.retHead, src, r, x.latency)
}

// Tick implements engine.Ticker: move up to perCycle ready entries per
// destination into the target ports, and drain up to perCycle responses per
// source partition.
func (x *Crossbar) Tick(cycle uint64) { x.drain(cycle, x.perCycle, x.perCycle) }
