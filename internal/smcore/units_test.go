package smcore

import (
	"sort"
	"testing"
	"testing/quick"

	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/trace"
)

// The unit tests build each unit through its class constructor, with
// slabs of its own, the path CycleAccurateUnits runs for an assembly.

func testALU(name string, latency, interval int, g *metrics.Gatherer) *ALUPipeline {
	return newALUPipeline(newALUClass(name, g), latency, interval,
		mem.NewSlab[ALUPipeline](1), mem.NewSlab[pipeSlot](max(latency, 1)))
}

func testCollector(name string, unit Unit, g *metrics.Gatherer) *OperandCollector {
	return newOperandCollector(newCollectorClass(name, g), unit, mem.NewSlab[OperandCollector](1))
}

func testICache(name string, capacityLines, missLatency int, g *metrics.Gatherer) *ICache {
	return newICache(newICacheClass(name, g), capacityLines, missLatency,
		mem.NewSlab[ICache](1), mem.NewSlab[uint64](2*max(capacityLines, 1)))
}

// testLDST builds an LD/ST unit of SM 0 with 32-byte sectors, 4 lanes, a
// 24-cycle shared-memory latency and a request store of its own.
func testLDST(name string, eng engine.Context, l1 mem.Port, queueCap int, g *metrics.Gatherer) *LDSTUnit {
	return newLDSTUnit(newLDSTClass(name, g, new(mem.Store)), eng, l1, 0, 32, 4, 24, queueCap,
		mem.NewSlab[LDSTUnit](1), mem.NewSlab[*ldstInst](ringSize(queueCap)))
}

func TestScoreboard(t *testing.T) {
	var sb scoreboard
	if sb.busy(5) {
		t.Fatal("fresh scoreboard busy")
	}
	sb.set(5)
	if !sb.busy(5) {
		t.Fatal("set register not busy")
	}
	sb.set(200)
	if !sb.busy(200) {
		t.Fatal("high register not tracked")
	}
	sb.clear(5)
	if sb.busy(5) || !sb.busy(200) {
		t.Fatal("clear affected wrong register")
	}
	// Register 0 (RegNone) is never tracked.
	sb.set(trace.RegNone)
	if sb.busy(trace.RegNone) {
		t.Fatal("RegNone tracked")
	}
}

func TestScoreboardReady(t *testing.T) {
	var sb scoreboard
	in := &trace.Inst{Dst: 3, Src: [2]trace.Reg{1, 2}}
	if !sb.ready(in) {
		t.Fatal("independent instruction not ready")
	}
	sb.set(1)
	if sb.ready(in) {
		t.Fatal("RAW hazard missed")
	}
	sb.clear(1)
	sb.set(3)
	if sb.ready(in) {
		t.Fatal("WAW hazard missed")
	}
}

// TestQuickScoreboard: set/clear round-trips for any register.
func TestQuickScoreboard(t *testing.T) {
	f := func(regs []uint8) bool {
		var sb scoreboard
		for _, r := range regs {
			sb.set(trace.Reg(r))
			if r != 0 && !sb.busy(trace.Reg(r)) {
				return false
			}
			sb.clear(trace.Reg(r))
			if sb.busy(trace.Reg(r)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceFullyCoalesced(t *testing.T) {
	// 32 consecutive fp32 words span 4 sectors of 32 B.
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = 0x1000 + uint64(i)*4
	}
	got := CoalesceInto(nil, addrs, 32)
	if len(got) != 4 {
		t.Fatalf("coalesced sectors = %d, want 4", len(got))
	}
	want := []uint64{0x1000, 0x1020, 0x1040, 0x1060}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sector %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestCoalesceBroadcast(t *testing.T) {
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = 0x2008
	}
	got := CoalesceInto(nil, addrs, 32)
	if len(got) != 1 || got[0] != 0x2000 {
		t.Fatalf("broadcast coalesce = %v", got)
	}
}

func TestCoalesceScattered(t *testing.T) {
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = uint64(i) * 512 // all distinct sectors
	}
	if got := CoalesceInto(nil, addrs, 32); len(got) != 32 {
		t.Fatalf("scattered coalesce = %d sectors, want 32", len(got))
	}
}

// TestQuickCoalesce: outputs are unique, sector-aligned, and cover every
// input address.
func TestQuickCoalesce(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		addrs := make([]uint64, len(raw))
		for i, r := range raw {
			addrs[i] = uint64(r)
		}
		out := CoalesceInto(nil, addrs, 32)
		seen := map[uint64]bool{}
		for _, s := range out {
			if s%32 != 0 || seen[s] {
				return false
			}
			seen[s] = true
		}
		for _, a := range addrs {
			if !seen[a&^31] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharedBankConflicts(t *testing.T) {
	conflictFree := make([]uint64, 32)
	for i := range conflictFree {
		conflictFree[i] = uint64(i) * 4
	}
	if got := SharedBankConflicts(conflictFree); got != 1 {
		t.Errorf("conflict-free degree = %d, want 1", got)
	}
	twoWay := make([]uint64, 32)
	for i := range twoWay {
		twoWay[i] = uint64(i%16) * 4 // pairs share banks
	}
	if got := SharedBankConflicts(twoWay); got != 2 {
		t.Errorf("two-way degree = %d, want 2", got)
	}
	broadcast := make([]uint64, 32)
	if got := SharedBankConflicts(broadcast); got != 32 {
		t.Errorf("broadcast degree = %d, want 32", got)
	}
}

func TestALUPipelineLatency(t *testing.T) {
	g := metrics.New()
	u := testALU("alu.test", 4, 2, g)
	in := &trace.Inst{Op: trace.OpInt, ActiveMask: 1}
	completedAt := uint64(0)
	u.Tick(10)
	if !u.TryIssue(10, in, func() {}) {
		t.Fatal("fresh pipeline refused issue")
	}
	for c := uint64(11); c < 20; c++ {
		wasBusy := u.Busy()
		u.Tick(c)
		if wasBusy && !u.Busy() && completedAt == 0 {
			completedAt = c
		}
	}
	if completedAt != 14 {
		t.Errorf("writeback at %d, want 14 (issue 10 + latency 4)", completedAt)
	}
	if g.Value("alu.test.issued") != 1 {
		t.Errorf("issued = %d, want 1", g.Value("alu.test.issued"))
	}
}

func TestALUPipelineInitiationInterval(t *testing.T) {
	g := metrics.New()
	u := testALU("alu.test", 4, 2, g)
	in := &trace.Inst{Op: trace.OpInt, ActiveMask: 1}
	u.Tick(0)
	if !u.TryIssue(0, in, func() {}) {
		t.Fatal("first issue refused")
	}
	u.Tick(1)
	if u.TryIssue(1, in, func() {}) {
		t.Fatal("issue accepted during initiation interval")
	}
	if g.Value("alu.test.port_stall") != 1 {
		t.Errorf("port_stall = %d, want 1", g.Value("alu.test.port_stall"))
	}
	u.Tick(2)
	if !u.TryIssue(2, in, func() {}) {
		t.Fatal("issue refused after initiation interval")
	}
}

func TestALUPipelineWritebackOrder(t *testing.T) {
	// Issue one instruction per cycle (II=1, latency 2) with per-cycle
	// ticking, as the SM does: writebacks come back in order, one per
	// cycle, at issue+latency.
	g := metrics.New()
	u := testALU("alu.test", 2, 1, g)
	in := &trace.Inst{Op: trace.OpInt, ActiveMask: 1}
	var order []int
	var wbCycles []uint64
	for c := uint64(0); c < 10; c++ {
		before := len(order)
		u.Tick(c)
		for range order[before:] {
			wbCycles = append(wbCycles, c)
		}
		if c < 3 {
			i := int(c)
			if !u.TryIssue(c, in, func() { order = append(order, i) }) {
				t.Fatalf("issue %d refused", i)
			}
		}
	}
	if len(order) != 3 || !sort.IntsAreSorted(order) {
		t.Fatalf("writeback order = %v", order)
	}
	want := []uint64{2, 3, 4}
	for i := range want {
		if wbCycles[i] != want[i] {
			t.Fatalf("writeback cycles = %v, want %v", wbCycles, want)
		}
	}
	if u.Busy() {
		t.Error("pipeline busy after draining")
	}
}

func TestALUPipelineParameterClamping(t *testing.T) {
	g := metrics.New()
	u := testALU("alu.test", 0, 0, g)
	if u.interval != 1 || len(u.stages) != 1 {
		t.Errorf("clamping failed: interval=%d stages=%d", u.interval, len(u.stages))
	}
}
