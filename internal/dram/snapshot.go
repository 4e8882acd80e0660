// Snapshot support (snap.Stateful) for the DRAM partition. Bank timing is
// kept in absolute cycles, so bank-free times and open-row state carry
// across a checkpoint unchanged (a bank may legitimately be booked past the
// snapshot cycle). The queue holds the writes still waiting for a bank at
// the kernel boundary, by value; an access already issued is a retirement
// in the engine section. Each queued request is decoded again on load; the
// record of a blocked window is not state.
package dram

import (
	"swiftsim/internal/mem"
	"swiftsim/internal/snap"
)

// Snap implements snap.Stateful.
func (p *Partition) Snap(c *snap.Codec) {
	snap.Slice(c, &p.queue, mem.RequestBytes)
	for i := range p.queue {
		mem.SnapValue(c, &p.queue[i].r)
		if c.Loading() && c.Err() == nil {
			p.queue[i] = p.decode(p.queue[i].r)
		}
	}
	if c.Loading() {
		p.blockedUntil = 0
	}
	if !c.Match(p.banks, 17, "banks") {
		return
	}
	for b := 0; b < p.banks; b++ {
		c.U64(&p.bankFreeAt[b])
		c.U64(&p.openRow[b])
		c.Bool(&p.rowOpen[b])
	}
}
