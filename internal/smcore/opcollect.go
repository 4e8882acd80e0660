package smcore

import (
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/trace"
)

// regFileBanks is the number of register-file banks per sub-core; two
// source operands in the same bank collect over two cycles.
const regFileBanks = 8

// collectorSlots is the number of collector units (instructions gathering
// operands concurrently).
const collectorSlots = 4

// collectEntry is one instruction gathering its source operands.
type collectEntry struct {
	in      *trace.Inst
	done    func()
	pending [len(trace.Inst{}.Src)]uint8 // register banks still to read: pending[:npend]
	npend   int
}

// OperandCollector models the operand-collection stage of the detailed
// simulator: issued instructions park in collector units, read their
// source operands through banked register-file ports (one read per bank
// per cycle; same-bank operands serialize), and only then enter the
// execution pipeline. Swift-Sim-Basic drops this stage — it is one of the
// "less critical modules" the paper simplifies — so it exists only in the
// fully cycle-accurate configuration.
//
// The collector units are a fixed array held by value, oldest first, so
// an instruction passing through allocates nothing.
type OperandCollector struct {
	collectorClass
	inner   Unit
	entries [collectorSlots]collectEntry
	n       int // occupied entries, entries[:n]
}

// collectorClass is what every collector of one arithmetic class shares:
// its name and its counters.
type collectorClass struct {
	name      string
	collected *metrics.Counter
	conflicts *metrics.Counter
}

func newCollectorClass(name string, g *metrics.Gatherer) collectorClass {
	return collectorClass{name: name, collected: g.Counter(name + ".collected"), conflicts: g.Counter(name + ".bank_conflict")}
}

// NewOperandCollector wraps unit with an operand-collection stage.
func NewOperandCollector(name string, unit Unit, g *metrics.Gatherer) *OperandCollector {
	return newOperandCollector(newCollectorClass(name, g), unit, nil)
}

// newOperandCollector wraps unit with a collector of class c whose
// collector units are its own, taken from ocs.
func newOperandCollector(c collectorClass, unit Unit, ocs *mem.Slab[OperandCollector]) *OperandCollector {
	oc := ocs.One()
	*oc = OperandCollector{collectorClass: c, inner: unit}
	return oc
}

// Name implements engine.Module.
func (oc *OperandCollector) Name() string { return oc.name }

// Kind implements engine.Module.
func (oc *OperandCollector) Kind() engine.ModelKind { return engine.CycleAccurate }

// Busy implements Unit.
func (oc *OperandCollector) Busy() bool { return oc.n > 0 || oc.inner.Busy() }

// TryIssue implements Unit: accept the instruction into a collector slot.
func (oc *OperandCollector) TryIssue(cycle uint64, in *trace.Inst, done func()) bool {
	if oc.n >= collectorSlots {
		return false
	}
	e := &oc.entries[oc.n]
	oc.n++
	e.in, e.done, e.npend = in, done, 0
	for _, src := range in.Src {
		if src != trace.RegNone {
			e.pending[e.npend] = uint8(src % regFileBanks)
			e.npend++
		}
	}
	return true
}

// Tick implements Unit: arbitrate register-bank reads (one per bank per
// cycle, oldest collector first), dispatch complete entries into the
// execution pipeline, then advance the pipeline itself.
func (oc *OperandCollector) Tick(cycle uint64) {
	oc.inner.Tick(cycle)
	if oc.n == 0 {
		return
	}

	var bankUsed [regFileBanks]bool
	kept := 0
	for i := 0; i < oc.n; i++ {
		e := oc.entries[i]
		// Read as many pending operands as bank ports allow.
		left := 0
		for _, b := range e.pending[:e.npend] {
			if bankUsed[b] {
				oc.conflicts.Inc()
				e.pending[left] = b
				left++
				continue
			}
			bankUsed[b] = true
		}
		e.npend = left
		if left == 0 && oc.inner.TryIssue(cycle, e.in, e.done) {
			oc.collected.Inc()
			continue // leaves the collector
		}
		oc.entries[kept] = e
		kept++
	}
	clear(oc.entries[kept:oc.n])
	oc.n = kept
}
