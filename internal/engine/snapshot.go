// Engine snapshot/restore: serialize the scheduler's counters and every
// module's state at a quiescent point into the versioned binary format of
// internal/snap, so long runs can fast-forward past warmup, sweeps can fan
// one warmed checkpoint out across configurations, and service jobs can be
// preempted and resumed.
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

// SaveState serializes the engine's scheduler state and the state of every
// module in the inventory. It must be called at a quiescent point (see
// Quiescent); otherwise a snap.ErrNotQuiescent error is recorded on w.
// Modules implementing snap.Stateful contribute their payload; all other
// modules are recorded with an empty section so restore can verify the
// assembly shape.
func (e *Engine) SaveState(w *snap.Writer) {
	if n := e.ev.pending(); n != 0 {
		w.Fail(fmt.Errorf("%w: engine has %d pending events", snap.ErrNotQuiescent, n))
		return
	}
	if e.anyBusy() {
		w.Fail(fmt.Errorf("%w: engine has busy tickers", snap.ErrNotQuiescent))
		return
	}
	w.U64(e.cycle)
	w.U64(e.seq)
	w.U64(e.tickedCycles)
	w.U64(e.skippedCycles)
	w.U64(e.firedEvents)
	w.U64(uint64(len(e.modules)))
	for _, m := range e.modules {
		w.String(m.Name())
		s, ok := m.(snap.Stateful)
		if !ok {
			w.Bytes64(nil)
			continue
		}
		var mw snap.Writer
		s.SnapSave(&mw)
		if err := mw.Err(); err != nil {
			w.Fail(fmt.Errorf("module %q: %w", m.Name(), err))
			return
		}
		w.Bytes64(mw.Bytes())
	}
}

// LoadState restores the engine from a snapshot payload into a freshly
// assembled engine with the identical module set. Every failure is a
// structured error; on error the engine state is undefined and the caller
// must discard the assembly.
func (e *Engine) LoadState(r *snap.Reader) error {
	e.cycle = r.U64()
	e.seq = r.U64()
	e.tickedCycles = r.U64()
	e.skippedCycles = r.U64()
	e.firedEvents = r.U64()
	n := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if n != uint64(len(e.modules)) {
		return fmt.Errorf("%w: snapshot has %d module sections, assembly has %d modules",
			snap.ErrCorrupt, n, len(e.modules))
	}
	for i, m := range e.modules {
		name := r.String()
		payload := r.BytesN()
		if err := r.Err(); err != nil {
			return fmt.Errorf("module section %d: %w", i, err)
		}
		if name != m.Name() {
			return fmt.Errorf("%w: module section %d is %q in the snapshot but %q in the assembly",
				snap.ErrCorrupt, i, name, m.Name())
		}
		s, ok := m.(snap.Stateful)
		if !ok {
			if len(payload) != 0 {
				return fmt.Errorf("%w: module section %d (%q) carries %d bytes for a stateless module",
					snap.ErrCorrupt, i, name, len(payload))
			}
			continue
		}
		mr := snap.NewReader(payload)
		if err := s.SnapLoad(mr); err != nil {
			return fmt.Errorf("module section %d (%q): %w", i, name, err)
		}
		if err := mr.Err(); err != nil {
			return fmt.Errorf("module section %d (%q): %w", i, name, err)
		}
		if mr.Remaining() != 0 {
			return fmt.Errorf("%w: module section %d (%q) has %d trailing bytes",
				snap.ErrCorrupt, i, name, mr.Remaining())
		}
	}
	return r.Err()
}
