// Package smcore implements the streaming-multiprocessor model of
// Swift-Sim: the Block Scheduler, the Warp Scheduler & Dispatch module
// (GTO / LRR / oldest-first policies), the scoreboard, the cycle-accurate
// execution-unit pipelines, and the LD/ST unit with its memory coalescer.
//
// Following the paper's modular design (§III-B2), every execution resource
// sits behind the Unit interface: the Warp Scheduler only knows that it
// hands instructions to units and receives completion acknowledgments, so a
// cycle-accurate pipeline and an analytical latency model are
// interchangeable per unit.
package smcore

import (
	"swiftsim/internal/trace"
)

// scoreboard tracks registers with outstanding writes for one warp.
type scoreboard struct {
	pending [4]uint64
}

func (s *scoreboard) set(r trace.Reg) {
	if r == trace.RegNone {
		return
	}
	s.pending[r>>6] |= 1 << (r & 63)
}

func (s *scoreboard) clear(r trace.Reg) {
	if r == trace.RegNone {
		return
	}
	s.pending[r>>6] &^= 1 << (r & 63)
}

func (s *scoreboard) busy(r trace.Reg) bool {
	if r == trace.RegNone {
		return false
	}
	return s.pending[r>>6]&(1<<(r&63)) != 0
}

// ready reports whether in can issue: no RAW/WAW hazard on its registers.
func (s *scoreboard) ready(in *trace.Inst) bool {
	return !s.busy(in.Dst) && !s.busy(in.Src[0]) && !s.busy(in.Src[1])
}

// Warp is one resident warp's execution context.
type Warp struct {
	// ID is the warp's global id within its SM (stable while resident).
	ID int
	// Age is a monotonically increasing assignment stamp used by the
	// oldest-first and GTO policies.
	Age uint64

	block *residentBlock
	// sc and slot are where the warp is resident: its sub-core and its
	// index in sc.warps, which is also its bit in sc.ready.
	sc    *subCore
	slot  int
	insts trace.WarpTrace
	pc    int
	sb    scoreboard

	outstanding int // issued but incomplete instructions
	atBarrier   bool
	exited      bool // EXIT issued
	done        bool // EXIT issued and all outstanding complete

	// ibuf counts fetched-but-unissued instructions when the detailed
	// front-end (fetch stage + instruction buffer) is modeled; -1 means
	// the front-end is disabled and instructions are always available.
	ibuf int

	// triedEpoch marks the last scheduling round in which dispatch
	// failed for this warp, so the picker skips it without allocating.
	triedEpoch uint64
}

// next returns the next instruction to issue, or nil when the warp has
// issued its whole stream.
func (w *Warp) next() *trace.Inst {
	if w.pc >= len(w.insts) {
		return nil
	}
	return &w.insts[w.pc]
}

// issuable reports whether the warp could issue this cycle, ignoring
// execution-unit availability.
func (w *Warp) issuable() bool {
	if w.done || w.exited || w.atBarrier || w.ibuf == 0 {
		return false
	}
	in := w.next()
	return in != nil && w.sb.ready(in)
}

// wantsFetch reports whether the front-end should fetch for this warp.
func (w *Warp) wantsFetch(depth int) bool {
	return !w.done && !w.exited && w.ibuf >= 0 && w.ibuf < depth &&
		w.pc+w.ibuf < len(w.insts)
}

// consumeIBuf removes one fetched instruction from the buffer (no-op when
// the front-end is disabled).
func (w *Warp) consumeIBuf() {
	if w.ibuf > 0 {
		w.ibuf--
	}
}
