// Snapshot support (snap.Stateful) for the interconnects. At a kernel
// boundary the only messages in flight are writes nobody waits for on their
// way to the L2: each forward-queue entry is walked by value with the cycle
// its traversal ends, and a return queue, which carries only answers, is
// empty.
package noc

import (
	"swiftsim/internal/mem"
	"swiftsim/internal/snap"
)

// entryBytes is the least a forward-queue entry takes in the stream.
const entryBytes = mem.RequestBytes + 8

// snapEntry walks one forward-queue entry.
func snapEntry(c *snap.Codec, e *entry) {
	mem.SnapValue(c, &e.r)
	c.U64(&e.ready)
}

// Snap implements snap.Stateful: a return queue must be empty, and loading
// counts the forward entries in flight, marks their queues occupied and
// sets their head cycles.
func (l *link) Snap(c *snap.Codec) {
	for i := range l.ret {
		c.Empty(l.ret[i].Len(), l.name+" return queue")
	}
	for i := range l.fwd {
		l.fwd[i].Snap(c, entryBytes, snapEntry)
		if c.Loading() && l.fwd[i].Len() > 0 {
			l.busyCnt += l.fwd[i].Len()
			l.fwdOcc[i>>6] |= 1 << (i & 63)
			l.fwdHead[i] = l.fwd[i].Front().ready
		}
	}
}

// Snap implements snap.Stateful. The injection count is the bisection
// budget already spent in the cycle the ring last ticked, which a write
// entering the ring before its next tick still sees.
func (r *Ring) Snap(c *snap.Codec) {
	c.Int(&r.injected)
	r.link.Snap(c)
}
