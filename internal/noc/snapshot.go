// Snapshot support (snap.Stateful) for the interconnects. A NoC carries no
// cross-kernel state: at a quiescent point both directions are empty, so
// the snapshot payload is empty and the walk only verifies quiescence.
package noc

import (
	"fmt"

	"swiftsim/internal/snap"
)

// Snap implements snap.Stateful.
func (x *Crossbar) Snap(c *snap.Codec) {
	if x.busyCnt != 0 {
		c.Fail(fmt.Errorf("%w: crossbar %s has %d messages in flight", snap.ErrNotQuiescent, x.name, x.busyCnt))
	}
}

// Snap implements snap.Stateful.
func (r *Ring) Snap(c *snap.Codec) {
	if r.busyCnt != 0 {
		c.Fail(fmt.Errorf("%w: ring %s has %d messages in flight", snap.ErrNotQuiescent, r.name, r.busyCnt))
	}
}
