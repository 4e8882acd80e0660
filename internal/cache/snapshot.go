// Snapshot support (snap.Stateful) for the cache substrate. At a quiescent
// kernel boundary a timed cache has no queued, in-flight or pending
// downstream requests; what persists is the tag array (the L2's warmed
// contents are the whole point of checkpoint fan-out), the replacement
// policy's clock and, for Random replacement, the xorshift stream state.
package cache

import (
	"fmt"

	"swiftsim/internal/snap"
)

// lineSnapBytes is the serialized size of one cache line (for allocation
// capping during decode).
const lineSnapBytes = 8 + 1 + 4 + 4 + 8 + 8

// snapSave serializes the tag array.
func (t *tags) snapSave(w *snap.Writer) {
	w.U64(t.clock)
	if rp, ok := t.pol.(*randomPolicy); ok {
		w.U64(rp.state)
	}
	w.U64(uint64(len(t.lines)))
	for i := range t.lines {
		l := &t.lines[i]
		w.U64(l.lineAddr)
		w.Bool(l.valid)
		w.U32(l.sectorValid)
		w.U32(l.sectorDirty)
		w.U64(l.lastUse)
		w.U64(l.fillSeq)
	}
}

// snapLoad restores the tag array; the snapshot's geometry must match the
// assembled configuration.
func (t *tags) snapLoad(r *snap.Reader) error {
	t.clock = r.U64()
	if rp, ok := t.pol.(*randomPolicy); ok {
		rp.state = r.U64()
	}
	n := r.Count(lineSnapBytes)
	if r.Err() != nil {
		return r.Err()
	}
	if n != len(t.lines) {
		r.Failf("tag array has %d lines in the snapshot, %d in the assembly", n, len(t.lines))
		return r.Err()
	}
	for i := range t.lines {
		l := &t.lines[i]
		l.lineAddr = r.U64()
		l.valid = r.Bool()
		l.sectorValid = r.U32()
		l.sectorDirty = r.U32()
		l.lastUse = r.U64()
		l.fillSeq = r.U64()
	}
	return r.Err()
}

// SnapSave implements snap.Stateful.
func (c *Timed) SnapSave(w *snap.Writer) {
	if c.inflight != 0 || c.toDown.Len() != 0 || c.mshr.used() != 0 {
		w.Fail(fmt.Errorf("%w: cache %s has %d in-flight requests, %d pending downstream, %d MSHR entries",
			snap.ErrNotQuiescent, c.name, c.inflight, c.toDown.Len(), c.mshr.used()))
		return
	}
	for b := range c.banks {
		if c.banks[b].Len() != 0 {
			w.Fail(fmt.Errorf("%w: cache %s bank %d holds %d queued requests",
				snap.ErrNotQuiescent, c.name, b, c.banks[b].Len()))
			return
		}
	}
	c.tags.snapSave(w)
}

// SnapLoad implements snap.Stateful.
func (c *Timed) SnapLoad(r *snap.Reader) error {
	return c.tags.snapLoad(r)
}

// SnapSave implements snap.Stateful for the functional (timeless) cache —
// the analytical Backend checkpoints its aggregate L2 through this.
func (f *Functional) SnapSave(w *snap.Writer) {
	w.U64(f.Accesses)
	w.U64(f.Hits)
	f.t.snapSave(w)
}

// SnapLoad implements snap.Stateful.
func (f *Functional) SnapLoad(r *snap.Reader) error {
	f.Accesses = r.U64()
	f.Hits = r.U64()
	return f.t.snapLoad(r)
}
