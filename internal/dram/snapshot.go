// Snapshot support (snap.Stateful) for the DRAM partition. Bank timing is
// kept in absolute cycles, so bank-free times and open-row state carry
// across a checkpoint unchanged (a bank may legitimately be booked past the
// snapshot cycle by the last access before quiescence).
package dram

import (
	"fmt"

	"swiftsim/internal/snap"
)

// Snap implements snap.Stateful.
func (p *Partition) Snap(c *snap.Codec) {
	if len(p.queue) != 0 {
		c.Fail(fmt.Errorf("%w: DRAM partition %s holds %d queued requests", snap.ErrNotQuiescent, p.name, len(p.queue)))
		return
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
