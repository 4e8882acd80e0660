package smcore

import (
	"testing"

	"swiftsim/internal/engine"
	"swiftsim/internal/metrics"
	"swiftsim/internal/trace"
)

// immediateUnit accepts everything and completes synchronously on Tick.
type immediateUnit struct {
	pending []func()
	issued  int
	refuse  bool
}

func (u *immediateUnit) Name() string           { return "imm" }
func (u *immediateUnit) Kind() engine.ModelKind { return engine.CycleAccurate }
func (u *immediateUnit) Busy() bool             { return len(u.pending) > 0 }
func (u *immediateUnit) TryIssue(cycle uint64, in *trace.Inst, done func()) bool {
	if u.refuse {
		return false
	}
	u.issued++
	u.pending = append(u.pending, done)
	return true
}
func (u *immediateUnit) Tick(cycle uint64) {
	for _, d := range u.pending {
		d()
	}
	u.pending = nil
}

func TestOperandCollectorSameBankSerializes(t *testing.T) {
	g := metrics.New()
	inner := &immediateUnit{}
	oc := testCollector("oc", inner, g)
	// Two source registers in the same bank (1 and 1+regFileBanks): the
	// instruction needs two cycles of collection.
	in := &trace.Inst{Op: trace.OpInt, Dst: 3,
		Src: [2]trace.Reg{1, 1 + regFileBanks}, ActiveMask: 1}
	if !oc.TryIssue(0, in, func() {}) {
		t.Fatal("collector refused")
	}
	oc.Tick(1) // reads bank 1 once; conflict on second operand
	if inner.issued != 0 {
		t.Fatal("instruction dispatched before both operands collected")
	}
	if g.Value("oc.bank_conflict") == 0 {
		t.Error("no bank conflict recorded")
	}
	oc.Tick(2) // second read completes; dispatch
	if inner.issued != 1 {
		t.Fatalf("issued = %d, want 1 after two collection cycles", inner.issued)
	}
}

func TestOperandCollectorDistinctBanksOneCycle(t *testing.T) {
	g := metrics.New()
	inner := &immediateUnit{}
	oc := testCollector("oc", inner, g)
	in := &trace.Inst{Op: trace.OpInt, Dst: 3, Src: [2]trace.Reg{1, 2}, ActiveMask: 1}
	oc.TryIssue(0, in, func() {})
	oc.Tick(1)
	if inner.issued != 1 {
		t.Fatalf("issued = %d, want 1 after one cycle", inner.issued)
	}
	if g.Value("oc.bank_conflict") != 0 {
		t.Error("spurious bank conflict")
	}
}

func TestOperandCollectorNoSourcesImmediate(t *testing.T) {
	inner := &immediateUnit{}
	oc := testCollector("oc", inner, metrics.New())
	in := &trace.Inst{Op: trace.OpInt, Dst: 3, ActiveMask: 1} // no sources
	oc.TryIssue(0, in, func() {})
	oc.Tick(1)
	if inner.issued != 1 {
		t.Fatal("source-free instruction delayed")
	}
}

func TestOperandCollectorSlotLimit(t *testing.T) {
	inner := &immediateUnit{refuse: true} // inner full: entries pile up
	oc := testCollector("oc", inner, metrics.New())
	in := &trace.Inst{Op: trace.OpInt, Dst: 3, Src: [2]trace.Reg{1, 2}, ActiveMask: 1}
	for i := 0; i < collectorSlots; i++ {
		if !oc.TryIssue(0, in, func() {}) {
			t.Fatalf("slot %d refused", i)
		}
	}
	if oc.TryIssue(0, in, func() {}) {
		t.Fatal("collector accepted beyond slot capacity")
	}
	if !oc.Busy() {
		t.Fatal("full collector reports idle")
	}
}

func TestOperandCollectorCrossEntryBankArbitration(t *testing.T) {
	// Two entries both needing bank 1: the older entry reads first.
	inner := &immediateUnit{}
	oc := testCollector("oc", inner, metrics.New())
	in1 := &trace.Inst{Op: trace.OpInt, Dst: 3, Src: [2]trace.Reg{1, trace.RegNone}, ActiveMask: 1}
	in2 := &trace.Inst{Op: trace.OpInt, Dst: 4, Src: [2]trace.Reg{1 + regFileBanks, trace.RegNone}, ActiveMask: 1}
	first, second := false, false
	oc.TryIssue(0, in1, func() { first = true })
	oc.TryIssue(0, in2, func() { second = true })
	oc.Tick(1)
	oc.Tick(2) // in1 dispatched at 1, executed at 2; in2 reads bank at 2
	if !first {
		t.Fatal("older entry not completed first")
	}
	if second {
		t.Fatal("younger same-bank entry completed too early")
	}
	oc.Tick(3)
	if !second {
		t.Fatal("younger entry never completed")
	}
}

func TestOperandCollectorRetriesWhenInnerBusy(t *testing.T) {
	inner := &immediateUnit{refuse: true}
	oc := testCollector("oc", inner, metrics.New())
	in := &trace.Inst{Op: trace.OpInt, Dst: 3, Src: [2]trace.Reg{1, 2}, ActiveMask: 1}
	done := false
	oc.TryIssue(0, in, func() { done = true })
	oc.Tick(1)
	oc.Tick(2)
	if inner.issued != 0 {
		t.Fatal("dispatched into refusing unit")
	}
	inner.refuse = false
	oc.Tick(3)
	oc.Tick(4)
	if !done {
		t.Fatal("instruction lost after inner unit freed up")
	}
}

// TestOperandCollectorAllocatesNothing: in steady state an instruction
// enters a collector unit, reads its operands (two in one bank, so it
// waits a cycle), enters the pipeline and completes without allocating.
func TestOperandCollectorAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := metrics.New()
	oc := testCollector("oc", testALU("alu", 4, 1, g), g)
	in := &trace.Inst{Op: trace.OpInt, Dst: 3, Src: [2]trace.Reg{1, 1 + regFileBanks}, ActiveMask: 1}
	completed := 0
	done := func() { completed++ }
	cycle := uint64(0)
	round := func() {
		want := completed + 2
		if !oc.TryIssue(cycle, in, done) || !oc.TryIssue(cycle, in, done) {
			t.Fatal("collector refused an instruction with free units")
		}
		for completed < want {
			cycle++
			oc.Tick(cycle)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("an instruction through the collector allocated %v objects, want 0", allocs)
	}
	if oc.Busy() {
		t.Error("collector busy after every instruction completed")
	}
}
