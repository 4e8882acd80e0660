// Engine snapshot/restore: the engine section of a checkpoint holds the
// scheduler's counters, every module's state and the pending request
// retirements at the first kernel boundary at or after the requested cycle,
// in the versioned binary format of internal/snap, so long runs can
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
//
// The only events pending at a kernel boundary are retirements of writes
// nobody waits for (the L1 write-throughs and L2 writebacks still draining),
// so the section lists each by value, in firing order: its due cycle, its
// stage, its level and the request. A pending closure cannot be written and
// fails the save with snap.ErrNotQuiescent.
package engine

import (
	"fmt"
	"slices"

	"swiftsim/internal/mem"
	"swiftsim/internal/snap"
)

// frameBytes is the least a module section takes in the stream: the length
// prefixes of its name and of its payload.
const frameBytes = 16

// retirementBytes is the least a pending retirement takes in the stream:
// due cycle, stage, level and the request.
const retirementBytes = 8 + 8 + 4 + mem.RequestBytes

// Stager is a module that retires requests through more than one mem.Stage
// value, as a DRAM partition retires row hits and row misses through two. A
// module that is itself a mem.Stage has that one.
type Stager interface {
	Stages() []mem.Stage
}

// Snap implements snap.Stateful for the engine section. Loading restores a
// freshly assembled engine with the identical module set; on error the
// engine state is undefined and the caller must discard the assembly. A
// module that is not snap.Stateful has an empty section, so restore still
// verifies the assembly's shape.
func (e *Engine) Snap(c *snap.Codec) { e.walk(c, false) }

// ParseState walks an engine section without an assembly, for checkpoint
// validation: the counters, each module section, whatever its name, with
// its payload unread, and the pending retirements.
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
	e.walkRetirements(c, skim)
}

// walkRetirements walks the pending events, each a retirement, in firing
// order. A retirement names its stage by its place in stages, every
// module's stages in registration order. Loading files the events back in
// that order, each with its place in the list as its seq, below every seq
// the engine hands out next: the run goes on to fire them, and everything
// scheduled after, in the uninterrupted run's (cycle, seq) order.
func (e *Engine) walkRetirements(c *snap.Codec, skim bool) {
	var stages []mem.Stage
	for _, m := range e.modules {
		if s, ok := m.(Stager); ok {
			stages = append(stages, s.Stages()...)
		} else if s, ok := m.(mem.Stage); ok {
			stages = append(stages, s)
		}
	}
	var evs eventQueue
	if !c.Loading() {
		evs = e.pending()
	}
	snap.Slice(c, (*[]event)(&evs), retirementBytes)
	for i := 0; i < len(evs) && c.Err() == nil; i++ {
		ev := &evs[i]
		stage, lvl := 0, uint32(0)
		if !c.Loading() {
			if ev.r == nil {
				c.Fail(fmt.Errorf("%w: engine has a pending event due at cycle %d that is not a request retirement", snap.ErrNotQuiescent, ev.cycle))
				return
			}
			s, l := ev.r.Retiring()
			if stage = slices.Index(stages, s); stage < 0 {
				c.Fail(fmt.Errorf("engine: the stage of a retirement due at cycle %d is no module of the assembly", ev.cycle))
				return
			}
			lvl = uint32(l)
		}
		c.U64(&ev.cycle)
		c.Int(&stage)
		c.U32(&lvl)
		mem.SnapValue(c, &ev.r)
		if !c.Loading() || skim || c.Err() != nil {
			continue
		}
		if stage < 0 || stage >= len(stages) || lvl > uint32(mem.LevelDRAM) {
			c.Failf("retirement %d: stage %d of %d, level %d", i, stage, len(stages), lvl)
			return
		}
		e.file(ev.cycle, uint64(i+1), nil, ev.r.Retirement(stages[stage], mem.Level(lvl)))
	}
}
