// Snapshot support (snap.Stateful) for the analytical models. Their entire
// state is next-free bookkeeping (issue ports, bandwidth meters) plus the
// Backend's functional L2 contents. Bandwidth meters are shared between
// instances (one DRAM meter per GPU, one L1-port meter per SM); every
// instance saves and restores the shared meter's free time, which is
// harmless because all of them write the same value.
package analytic

import (
	"swiftsim/internal/snap"
)

// Snap implements snap.Stateful.
func (u *ALUModel) Snap(c *snap.Codec) { c.U64(&u.freeAt) }

// snap walks the meter's booked-until time; the service rate is
// configuration-derived.
func (m *BandwidthMeter) snap(c *snap.Codec) { c.F64(&m.freeAt) }

// Snap implements snap.Stateful.
func (u *MemModel) Snap(c *snap.Codec) {
	c.U64(&u.freeAt)
	for _, m := range []*BandwidthMeter{u.dram, u.l1port, u.noc, u.mshr} {
		if c.Has(m != nil, "bandwidth meter") {
			m.snap(c)
		}
	}
}

// Snap implements snap.Stateful: the warmed functional L2 plus the shared
// bandwidth meters.
func (b *Backend) Snap(c *snap.Codec) {
	b.l2.Snap(c)
	b.noc.snap(c)
	b.dram.snap(c)
}
