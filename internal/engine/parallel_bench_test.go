package engine

import (
	"fmt"
	"testing"
)

// benchShardTicker is a permanently-busy sharded module for the
// steady-state tick benchmark: it exercises the staged Schedule/Defer
// paths every few ticks through preallocated closures, so the benchmark
// measures the engine's per-cycle cost — barrier dispatch, staged-arena
// writes, the fold — with zero allocation attributable to the harness.
type benchShardTicker struct {
	name  string
	ctx   Context
	wake  func()
	work  int
	ticks int
	fill  func() // preallocated completion-event closure
	note  func() // preallocated cross-shard defer closure
	coll  *benchCollector
}

func (t *benchShardTicker) Name() string     { return t.name }
func (t *benchShardTicker) Kind() ModelKind  { return CycleAccurate }
func (t *benchShardTicker) Busy() bool       { return t.work > 0 }
func (t *benchShardTicker) SetWake(w func()) { t.wake = w }
func (t *benchShardTicker) Tick(cycle uint64) {
	t.ticks++
	t.work--
	switch t.ticks % 4 {
	case 0:
		t.ctx.Schedule(2, t.fill) // completion-event path
	case 2:
		t.ctx.Defer(t.note) // cross-shard notification path
	}
}

// benchCollector is the serial module the defers land on; it drains its
// work immediately so the head segment's membership churns every cycle,
// keeping the barrier's rebuild path honest.
type benchCollector struct {
	name string
	wake func()
	work int
}

func (c *benchCollector) Name() string     { return c.name }
func (c *benchCollector) Kind() ModelKind  { return CycleAccurate }
func (c *benchCollector) Busy() bool       { return c.work > 0 }
func (c *benchCollector) SetWake(w func()) { c.wake = w }
func (c *benchCollector) Tick(cycle uint64) {
	if c.work > 0 {
		c.work = 0
	}
}
func (c *benchCollector) give() {
	c.work++
	if c.wake != nil {
		c.wake()
	}
}

// newShardedBenchEngine wires nSMs permanently-busy sharded tickers plus a
// serial collector head into an engine with workers forced up, mirroring
// the head/segment layout of a real assembly.
func newShardedBenchEngine(nSMs, nShards int) (*Engine, *benchCollector) {
	e := New()
	e.SetParallel(nShards)
	e.forceWorkers = true
	coll := &benchCollector{name: "collector"}
	e.Register(coll)
	for i := 0; i < nSMs; i++ {
		t := &benchShardTicker{
			name: fmt.Sprintf("sm%d", i),
			ctx:  e.ShardContext(i % nShards),
			work: 1 << 30,
			coll: coll,
		}
		t.fill = func() {
			t.work++
			if t.wake != nil {
				t.wake()
			}
		}
		t.note = func() { t.coll.give() }
		e.RegisterSharded(t, i%nShards)
	}
	return e, coll
}

// stepCycle advances the engine by one simulated cycle exactly as the run
// loop does — event phase with batched wakes, then the tick — without the
// loop's done()/context scaffolding, so b.N counts cycles.
func stepCycle(e *Engine) {
	e.fireDue()
	e.tickCycle()
	e.tickedCycles++
	e.cycle++
}

// BenchmarkEngineShardedTick measures the steady-state cost of one
// sharded simulated cycle: worker dispatch and join through the
// spin-then-park barrier, the staged arenas, and the fold. The committed floor is 0 B/op and 0 allocs/op — the
// sharded hot path must not touch the heap once arenas are warm (gated
// via `benchcmp -metric allocs/op -max` in `make benchcmp`).
func BenchmarkEngineShardedTick(b *testing.B) {
	for _, nShards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d", nShards), func(b *testing.B) {
			e, _ := newShardedBenchEngine(32, nShards)
			if err := e.beginRun(); err != nil {
				b.Fatal(err)
			}
			defer e.stopWorkers()
			// Warm the arenas: grow staged queues, the event heap, the
			// active-list scratch buffers to their steady-state capacity.
			for i := 0; i < 512; i++ {
				stepCycle(e)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stepCycle(e)
			}
		})
	}
}
