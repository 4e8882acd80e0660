// The relaxed-sync epoch boundary: bounded-staleness queues between the L1s
// of the engine's epoch-local segment and the shared memory system
// (NoC/L2/DRAM, or the analytical Backend in the L2Hybrid assembly).
//
// In an exact run (EpochCycles <= 1) every module ticks every cycle, so the
// L1s push into the shared interconnect directly. In a relaxed run the
// segment runs k local cycles ahead of the serial modules and the L1 drains
// run *inside* its pass, so each L1 instead pushes into its own boundary
// port, which always accepts and stamps the message with the segment-local
// capture cycle. The boundary itself is a serial module registered between
// the L1s and the interconnect; every cycle it holds traffic it folds the
// port buffers together and delivers, in deterministic (capture cycle, SM
// index, FIFO) order, exactly the messages whose capture cycle has been
// reached — so downstream modules never observe a message from their
// future, and the delivered schedule is a pure function of the assembly and
// the epoch length.
//
// Invariants:
//   - per-port buffers are written only by the owning L1 during the pass,
//     and only read/cleared by the serial boundary tick;
//   - a port's capture cycles are nondecreasing, so a stable sort on
//     (cycle, port) preserves each L1's FIFO order;
//   - messages refused by the downstream port (backpressure) are retried
//     every cycle; Busy() reports pending traffic so the engine neither
//     fast-forwards past it nor declares a deadlock while a request is
//     parked here;
//   - the boundary is in the engine's active set exactly while it holds
//     traffic: the first message a port captures since the last fold wakes
//     it through the port's context, so a wake from inside the segment's
//     pass is staged and lands at the engine's fold — before the serial
//     tail, which then ticks the boundary at the epoch's first cycle.
package sim

import (
	"cmp"
	"slices"

	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/snap"
)

// boundaryItem is one in-flight message with its capture metadata.
type boundaryItem struct {
	cyc uint64 // segment-local cycle the L1 pushed the message
	ord int    // originating port (SM) index: the serial-order tie-break
	r   *mem.Request
}

// epochBoundary carries the segment's memory traffic out to the serial
// modules.
type epochBoundary struct {
	name  string
	down  mem.Port
	ports []*boundaryPort
	queue []boundaryItem // folded, sorted, awaiting delivery
	wake  func()

	messages *metrics.Counter // total messages carried
	deferred *metrics.Counter // deliveries after the capture cycle (backpressure)
}

func newEpochBoundary(name string, down mem.Port, g *metrics.Gatherer) *epochBoundary {
	return &epochBoundary{
		name:     name,
		down:     down,
		messages: g.Counter(name + ".messages"),
		deferred: g.Counter(name + ".deferred"),
	}
}

// port returns a new entry port for one L1. ord must be unique and ordered
// like the L1s' registration order (the SM index), and ctx must be the
// owning L1's engine context so capture cycles are segment-local.
func (b *epochBoundary) port(ord int, ctx engine.Context) mem.Port {
	p := &boundaryPort{b: b, ord: ord, ctx: ctx}
	b.ports = append(b.ports, p)
	return p
}

// Name implements engine.Module.
func (b *epochBoundary) Name() string { return b.name }

// Kind implements engine.Module.
func (b *epochBoundary) Kind() engine.ModelKind { return engine.CycleAccurate }

// SetWake implements engine.Ticker.
func (b *epochBoundary) SetWake(wake func()) { b.wake = wake }

// Busy implements engine.Ticker: pending traffic must keep the engine
// visiting cycles. Called only from the engine's serial phases.
func (b *epochBoundary) Busy() bool {
	if len(b.queue) > 0 {
		return true
	}
	for _, p := range b.ports {
		if len(p.buf) > 0 {
			return true
		}
	}
	return false
}

// Tick implements engine.Ticker: fold the port buffers, restore serial
// delivery order, and release everything captured at or before this cycle.
func (b *epochBoundary) Tick(cycle uint64) {
	folded := false
	for _, p := range b.ports {
		if len(p.buf) > 0 {
			b.messages.Add(uint64(len(p.buf)))
			b.queue = append(b.queue, p.buf...)
			p.buf = p.buf[:0]
			folded = true
		}
	}
	if folded {
		// Stable: items of one port at one cycle keep their FIFO order.
		// A generic sort with a named function allocates nothing, where
		// sort.SliceStable allocated a swapper and a closure every fold.
		slices.SortStableFunc(b.queue, deliveryOrder)
	}
	n := 0
	for n < len(b.queue) && b.queue[n].cyc <= cycle {
		if !b.down.Accept(b.queue[n].r) {
			break
		}
		if b.queue[n].cyc < cycle {
			b.deferred.Inc()
		}
		n++
	}
	if n > 0 {
		b.queue = append(b.queue[:0], b.queue[n:]...)
	}
}

// deliveryOrder orders boundary items by capture cycle, then port.
func deliveryOrder(x, y boundaryItem) int {
	if c := cmp.Compare(x.cyc, y.cyc); c != 0 {
		return c
	}
	return cmp.Compare(x.ord, y.ord)
}

// itemBytes is the least a boundary item takes in a stream.
const itemBytes = 8 + 8 + mem.RequestBytes

// Snap implements snap.Stateful: the writes parked here at a kernel
// boundary, by value with their capture metadata.
func (b *epochBoundary) Snap(c *snap.Codec) {
	snapItems(c, &b.queue)
	for _, p := range b.ports {
		snapItems(c, &p.buf)
	}
}

// snapItems walks one list of boundary items.
func snapItems(c *snap.Codec, items *[]boundaryItem) {
	snap.Slice(c, items, itemBytes)
	for i := range *items {
		it := &(*items)[i]
		c.U64(&it.cyc)
		c.Int(&it.ord)
		mem.SnapValue(c, &it.r)
	}
}

// boundaryPort is one L1's private entry into the boundary.
type boundaryPort struct {
	b   *epochBoundary
	ord int
	ctx engine.Context
	buf []boundaryItem
}

// Accept implements mem.Port. It never refuses: downstream backpressure is
// absorbed by the boundary queue (and surfaced through the deferred
// counter), which is part of the relaxation — an L1 never stalls on the
// shared interconnect mid-epoch. Runs inside the segment's pass, so the
// boundary's wake escapes through Defer.
func (p *boundaryPort) Accept(r *mem.Request) bool {
	if len(p.buf) == 0 {
		p.ctx.Defer(p.b.wake)
	}
	p.buf = append(p.buf, boundaryItem{cyc: p.ctx.Cycle(), ord: p.ord, r: r})
	return true
}
