package smcore

import "swiftsim/internal/trace"

// Picker is a pluggable warp-scheduling policy — the extension point for
// the paper's motivating scenario: "assuming we need to explore a new warp
// scheduling algorithm, Warp Scheduler & Dispatch needs cycle-accurate
// simulation". Installing a Picker (via UnitSet.Scheduler) replaces the
// built-in GTO/LRR/oldest-first selection of one sub-core while leaving
// every other module untouched.
//
// Each simulated cycle the dispatcher repeatedly calls Pick until an
// instruction issues or Pick returns -1. The tried predicate reports warps
// already rejected this round (their unit was busy); Pick must not return
// them again. Returned warps must satisfy issuable reporting via
// Issuable(w).
type Picker interface {
	// Pick returns the index into warps of the next candidate, or -1
	// when no (remaining) warp should issue this cycle. Nil slots and
	// non-issuable warps must be skipped; use Issuable to test.
	Pick(cycle uint64, warps []*Warp, tried func(*Warp) bool) int
	// Issued notifies the policy that warps[idx] issued an instruction
	// (for greedy or history-based policies).
	Issued(idx int, w *Warp)
}

// Issuable reports whether w can issue this cycle (ignoring execution-unit
// availability): it exists so custom Pickers outside this package can test
// candidates exactly like the built-in policies do.
func Issuable(w *Warp) bool { return w != nil && w.issuable() }

// NextOp returns the opcode class of w's next instruction; ok is false
// when the warp has no pending instruction. Pickers use it to build
// instruction-aware policies (e.g. prioritizing memory instructions).
func NextOp(w *Warp) (op trace.OpClass, ok bool) {
	if w == nil {
		return 0, false
	}
	in := w.next()
	if in == nil {
		return 0, false
	}
	return in.Op, true
}

// RemainingInsts returns how many instructions w still has to issue
// (criticality-aware policies use it).
func RemainingInsts(w *Warp) int {
	if w == nil {
		return 0
	}
	return len(w.insts) - w.pc
}

// setPicker installs p as the sub-core's policy (nil keeps the built-in
// one) and binds the tried predicate its Pick calls receive.
func (sc *subCore) setPicker(p Picker) {
	sc.picker = p
	sc.tried = nil
	if p != nil {
		sc.tried = func(w *Warp) bool { return w.triedEpoch == sc.epoch }
	}
}

// issueCustom drives dispatch through an installed Picker.
func (sc *subCore) issueCustom(cycle uint64) bool {
	tried := sc.tried
	for {
		idx := sc.picker.Pick(cycle, sc.warps, tried)
		if idx < 0 {
			return false
		}
		if idx >= len(sc.warps) {
			return false
		}
		w := sc.warps[idx]
		if w == nil || !w.issuable() || tried(w) {
			// Defensive: a misbehaving picker must not livelock the
			// scheduler.
			return false
		}
		if sc.dispatch(w, cycle) {
			sc.picker.Issued(idx, w)
			return true
		}
		w.triedEpoch = sc.epoch
	}
}
