// Snapshot support (snap.Stateful) for the cache substrate. At a quiescent
// kernel boundary a timed cache has no queued, in-flight or pending
// downstream requests; what persists is the tag array (the L2's warmed
// contents are the whole point of checkpoint fan-out), the replacement
// policy's clock and, for Random replacement, the xorshift stream state.
package cache

import (
	"fmt"

	"swiftsim/internal/config"
	"swiftsim/internal/snap"
)

// lineSnapBytes is the serialized size of one cache line (for allocation
// capping during decode).
const lineSnapBytes = 8 + 1 + 4 + 4 + 8 + 8

// snap walks the tag array; the snapshot's geometry must match the
// assembled configuration.
func (t *tags) snap(c *snap.Codec) {
	c.U64(&t.clock)
	if t.repl == config.Random {
		c.U64(&t.rng)
	}
	if !c.Match(len(t.lines), lineSnapBytes, "tag array lines") {
		return
	}
	for i := range t.lines {
		l := &t.lines[i]
		c.U64(&l.lineAddr)
		c.Bool(&l.valid)
		c.U32(&l.sectorValid)
		c.U32(&l.sectorDirty)
		c.U64(&l.lastUse)
		c.U64(&l.fillSeq)
	}
}

// Snap implements snap.Stateful.
func (c *Timed) Snap(sc *snap.Codec) {
	if c.inflight != 0 || c.toDown.Len() != 0 || c.mshr.used() != 0 {
		sc.Fail(fmt.Errorf("%w: cache %s has %d in-flight requests, %d pending downstream, %d MSHR entries",
			snap.ErrNotQuiescent, c.name, c.inflight, c.toDown.Len(), c.mshr.used()))
		return
	}
	for b := range c.banks {
		if c.banks[b].Len() != 0 {
			sc.Fail(fmt.Errorf("%w: cache %s bank %d holds %d queued requests",
				snap.ErrNotQuiescent, c.name, b, c.banks[b].Len()))
			return
		}
	}
	c.tags.snap(sc)
}

// Snap implements snap.Stateful for the functional (timeless) cache — the
// analytical Backend checkpoints its aggregate L2 through this.
func (f *Functional) Snap(c *snap.Codec) {
	c.U64(&f.Accesses)
	c.U64(&f.Hits)
	f.t.snap(c)
}
