// Snapshot support (snap.Stateful) for the cache substrate. What persists
// across a kernel boundary is the tag array (the L2's warmed contents are
// the whole point of checkpoint fan-out), the replacement policy's clock
// and, for Random replacement, the xorshift stream state. A timed cache also
// holds the writes still draining through it at the boundary, by value: its
// bank queues, its downstream queue and the count of requests it has taken
// and not yet retired. Its MSHR is empty there, since every read has been
// answered. Loading recounts the bank-queued requests from the queues.
package cache

import (
	"swiftsim/internal/config"
	"swiftsim/internal/mem"
	"swiftsim/internal/snap"
)

// lineSnapBytes is the serialized size of one cache line (for allocation
// capping during decode). The stream keeps a valid byte per line, which
// must agree with the sector mask the line's validity is derived from.
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
		valid := l.sectorValid != 0
		c.U64(&l.lineAddr)
		c.Bool(&valid)
		c.U32(&l.sectorValid)
		c.U32(&l.sectorDirty)
		c.U64(&l.lastUse)
		c.U64(&l.fillSeq)
		if c.Loading() && c.Err() == nil && valid != (l.sectorValid != 0) {
			c.Failf("tag line %d: valid byte %v with sector mask %#x", i, valid, l.sectorValid)
			return
		}
	}
}

// Snap implements snap.Stateful.
func (c *Timed) Snap(sc *snap.Codec) {
	sc.Empty(c.mshr.used(), c.name+" MSHR")
	sc.Int(&c.inflight)
	for b := range c.banks {
		c.banks[b].Snap(sc, mem.RequestBytes, mem.SnapValue)
		if sc.Loading() {
			c.queued += c.banks[b].Len()
		}
	}
	c.toDown.Snap(sc, mem.RequestBytes, mem.SnapValue)
	c.tags.snap(sc)
}

// Snap implements snap.Stateful for the functional (timeless) cache — the
// analytical Backend checkpoints its aggregate L2 through this.
func (f *Functional) Snap(c *snap.Codec) {
	c.U64(&f.Accesses)
	c.U64(&f.Hits)
	f.t.snap(c)
}
