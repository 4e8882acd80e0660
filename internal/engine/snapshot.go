// Engine snapshot/restore: the engine section of a checkpoint holds the
// scheduler's counters and every module's state at a quiescent point, in
// the versioned binary format of internal/snap, so long runs can
// fast-forward past warmup, sweeps can fan one warmed checkpoint out across
// configurations, and service jobs can be preempted and resumed. The
// section's layout is written once, in walk: Snap saves and restores
// through it, and ParseState validates a section through it without an
// assembly. No other package knows this layout.
//
// Module sections are matched POSITIONALLY: module names are not unique
// ("l1" appears once per SM, "alu.INT" once per sub-core), but the
// assembly's registration order is deterministic and independent of the
// engine thread count, so section i always belongs to modules[i]. The name
// stored with each section is a consistency check, not a lookup key.
package engine

import (
	"fmt"

	"swiftsim/internal/snap"
)

// frameBytes is the least a module section takes in the stream: the length
// prefixes of its name and of its payload.
const frameBytes = 16

// Snap implements snap.Stateful for the engine section. Saving must happen
// at a quiescent point (see Quiescent); otherwise it fails c with
// snap.ErrNotQuiescent. Loading restores a freshly assembled engine with the
// identical module set; on error the engine state is undefined and the
// caller must discard the assembly. A module that is not snap.Stateful has
// an empty section, so restore still verifies the assembly's shape.
func (e *Engine) Snap(c *snap.Codec) {
	if !c.Loading() {
		if n := e.ev.pending(); n != 0 {
			c.Fail(fmt.Errorf("%w: engine has %d pending events", snap.ErrNotQuiescent, n))
			return
		}
		if e.anyBusy() {
			c.Fail(fmt.Errorf("%w: engine has busy tickers", snap.ErrNotQuiescent))
			return
		}
	}
	e.walk(c, false)
}

// ParseState walks an engine section without an assembly, for checkpoint
// validation: the counters, then each module section, whatever its name,
// with its payload unread.
func ParseState(c *snap.Codec) { new(Engine).walk(c, true) }

// walk is the engine section's layout. skim accepts any module sections in
// place of e's.
func (e *Engine) walk(c *snap.Codec, skim bool) {
	c.U64(&e.cycle)
	c.U64(&e.seq)
	c.U64(&e.tickedCycles)
	c.U64(&e.skippedCycles)
	c.U64(&e.firedEvents)
	n := len(e.modules)
	if skim {
		c.Count(&n, frameBytes)
	} else if !c.Match(n, frameBytes, "module sections") {
		return
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var name string
		var body func(*snap.Codec)
		if !skim {
			m := e.modules[i]
			name = m.Name()
			body = func(c *snap.Codec) {
				if name != m.Name() {
					c.Failf("module section %d is %q in the snapshot but %q in the assembly", i, name, m.Name())
				} else if s, ok := m.(snap.Stateful); ok {
					s.Snap(c)
				}
			}
		}
		c.Frame(&name, body)
	}
}
