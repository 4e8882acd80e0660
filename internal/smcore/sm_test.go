package smcore

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"swiftsim/internal/config"
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/snap"
	"swiftsim/internal/trace"
)

// fixedMem is an L1 stand-in that completes every request after a fixed
// latency.
type fixedMem struct {
	eng      *engine.Engine
	latency  uint64
	accepted int
}

func (m *fixedMem) Accept(r *mem.Request) bool {
	m.accepted++
	m.eng.Schedule(m.latency, func() {
		r.Complete(mem.LevelL1)
	})
	return true
}

func testSMConfig() config.SM {
	cfg := config.RTX2080Ti().SM
	cfg.MaxWarps = 16
	return cfg
}

type smHarness struct {
	eng *engine.Engine
	sm  *SM
	bs  *BlockScheduler
	mem *fixedMem
	g   *metrics.Gatherer
}

func newSMHarness(t *testing.T, cfg config.SM) *smHarness {
	t.Helper()
	eng := engine.New()
	g := metrics.New()
	fm := &fixedMem{eng: eng, latency: 40}
	us := NewCycleAccurateUnits(cfg, eng, g, 32, func(int) mem.Port { return fm })
	h := &smHarness{eng: eng, mem: fm, g: g}
	sm, err := NewSM(0, cfg, eng, us, g, func(sm *SM) { h.bs.BlockDone(sm) })
	if err != nil {
		t.Fatalf("NewSM: %v", err)
	}
	h.sm = sm
	h.bs = NewBlockScheduler([]*SM{h.sm}, g)
	eng.Register(h.bs)
	eng.Register(h.sm)
	return h
}

func (h *smHarness) run(t *testing.T, k *trace.Kernel) uint64 {
	t.Helper()
	if err := k.Validate(); err != nil {
		t.Fatalf("invalid test kernel: %v", err)
	}
	h.bs.LaunchKernel(k)
	start := h.eng.Cycle()
	if _, err := h.eng.Run(h.bs.KernelDone, start+5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return h.eng.Cycle() - start
}

// simpleKernel builds a kernel of identical warps from an instruction
// pattern function.
func simpleKernel(blocks, warpsPerBlock int, gen func(b *kbuilder)) *trace.Kernel {
	k := &trace.Kernel{
		Name:          "test",
		Grid:          trace.Dim3{X: blocks, Y: 1, Z: 1},
		Block:         trace.Dim3{X: warpsPerBlock * 32, Y: 1, Z: 1},
		RegsPerThread: 16,
	}
	for b := 0; b < blocks; b++ {
		var bt trace.BlockTrace
		for w := 0; w < warpsPerBlock; w++ {
			kb := &kbuilder{}
			gen(kb)
			kb.emit(trace.Inst{Op: trace.OpExit, ActiveMask: 0xffffffff})
			bt.Warps = append(bt.Warps, kb.insts)
		}
		k.Blocks = append(k.Blocks, bt)
	}
	k.NumberMem()
	return k
}

type kbuilder struct {
	insts trace.WarpTrace
	pc    uint64
}

func (b *kbuilder) emit(in trace.Inst) {
	in.PC = b.pc
	b.pc += 8
	b.insts = append(b.insts, in)
}

func (b *kbuilder) intOp(dst trace.Reg, srcs ...trace.Reg) {
	var s [2]trace.Reg
	copy(s[:], srcs)
	b.emit(trace.Inst{Op: trace.OpInt, Dst: dst, Src: s, ActiveMask: 0xffffffff})
}

// loadAt emits a coalesced load: its strided lanes are held in the
// instruction, so the kernel needs no lane store.
func (b *kbuilder) loadAt(dst trace.Reg, base uint64) {
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = base + uint64(i)*4
	}
	in := trace.Inst{Op: trace.OpLoadGlobal, Dst: dst, ActiveMask: 0xffffffff}
	var arena trace.Arena
	arena.SetLanes(&in, addrs)
	b.emit(in)
}

func (b *kbuilder) barrier() {
	b.emit(trace.Inst{Op: trace.OpBarrier, ActiveMask: 0xffffffff})
}

func TestSMRunsALUKernel(t *testing.T) {
	h := newSMHarness(t, testSMConfig())
	k := simpleKernel(2, 4, func(b *kbuilder) {
		for i := 0; i < 10; i++ {
			b.intOp(trace.Reg(i+1), trace.Reg(i), 0)
		}
	})
	cycles := h.run(t, k)
	if cycles == 0 {
		t.Fatal("kernel completed in zero cycles")
	}
	// 2 blocks × 4 warps × 11 instructions.
	if got := h.g.Value("sm.issued"); got != 88 {
		t.Errorf("issued = %d, want 88", got)
	}
	if h.sm.ResidentBlocks() != 0 {
		t.Errorf("blocks still resident after kernel end")
	}
	if h.sm.usedWarps != 0 || h.sm.usedRegs != 0 || h.sm.usedShmem != 0 {
		t.Errorf("resources leaked: warps=%d regs=%d shmem=%d",
			h.sm.usedWarps, h.sm.usedRegs, h.sm.usedShmem)
	}
}

func TestSMDependencyStalls(t *testing.T) {
	// A chain of dependent instructions must take at least latency per
	// instruction; independent ones pipeline.
	cfg := testSMConfig()
	chain := simpleKernel(1, 1, func(b *kbuilder) {
		for i := 0; i < 20; i++ {
			b.intOp(5, 5, 0) // serial dependency on r5
		}
	})
	indep := simpleKernel(1, 1, func(b *kbuilder) {
		for i := 0; i < 20; i++ {
			b.intOp(trace.Reg(i+1), 0, 0)
		}
	})
	hChain := newSMHarness(t, cfg)
	cChain := hChain.run(t, chain)
	hIndep := newSMHarness(t, cfg)
	cIndep := hIndep.run(t, indep)
	if cChain <= cIndep {
		t.Errorf("dependent chain (%d cycles) not slower than independent stream (%d)", cChain, cIndep)
	}
	if cChain < 20*uint64(cfg.IntLatency) {
		t.Errorf("chain = %d cycles, want >= %d (20 × latency)", cChain, 20*cfg.IntLatency)
	}
}

func TestSMMemoryKernel(t *testing.T) {
	h := newSMHarness(t, testSMConfig())
	k := simpleKernel(1, 2, func(b *kbuilder) {
		b.loadAt(1, 0x1000)
		b.intOp(2, 1, 0) // depends on the load
	})
	cycles := h.run(t, k)
	if cycles < h.mem.latency {
		t.Errorf("kernel = %d cycles, below memory latency %d", cycles, h.mem.latency)
	}
	// Each load coalesces to 4 sectors: 2 blocks? 1 block × 2 warps × 4.
	if h.mem.accepted != 8 {
		t.Errorf("memory requests = %d, want 8", h.mem.accepted)
	}
	if got := h.g.Value("ldst.transactions"); got != 8 {
		t.Errorf("ldst.transactions = %d, want 8", got)
	}
}

func TestSMBarrierSynchronizes(t *testing.T) {
	h := newSMHarness(t, testSMConfig())
	k := simpleKernel(1, 4, func(b *kbuilder) {
		b.intOp(1, 0, 0)
		b.barrier()
		b.intOp(2, 1, 0)
	})
	h.run(t, k) // must not deadlock
	if got := h.g.Value("sm.issued"); got != 16 {
		t.Errorf("issued = %d, want 16", got)
	}
}

func TestSMSchedulerPoliciesAllComplete(t *testing.T) {
	for _, pol := range []config.SchedPolicy{config.GTO, config.LRR, config.OldestFirst} {
		cfg := testSMConfig()
		cfg.Scheduler = pol
		h := newSMHarness(t, cfg)
		k := simpleKernel(3, 4, func(b *kbuilder) {
			b.loadAt(1, 0x4000)
			for i := 0; i < 6; i++ {
				b.intOp(trace.Reg(i+2), 1, trace.Reg(i+1))
			}
		})
		h.run(t, k)
		if got := h.g.Value("sm.issued"); got != 3*4*8 {
			t.Errorf("%v: issued = %d, want %d", pol, got, 3*4*8)
		}
	}
}

func TestSMOccupancyLimits(t *testing.T) {
	cfg := testSMConfig()
	cfg.MaxBlocks = 2
	h := newSMHarness(t, cfg)
	// Many small blocks: at most 2 resident at once.
	k := simpleKernel(8, 1, func(b *kbuilder) {
		b.loadAt(1, 0x8000)
		b.intOp(2, 1, 0)
	})
	h.bs.LaunchKernel(k)
	maxResident := 0
	for !h.bs.KernelDone() {
		if _, err := h.eng.Run(func() bool {
			return h.sm.ResidentBlocks() > maxResident || h.bs.KernelDone()
		}, 5_000_000); err != nil {
			t.Fatal(err)
		}
		if r := h.sm.ResidentBlocks(); r > maxResident {
			maxResident = r
		}
	}
	if maxResident > 2 {
		t.Errorf("max resident blocks = %d, want <= 2", maxResident)
	}
	if maxResident == 0 {
		t.Error("no block ever resident")
	}
}

func TestSMRegisterPressureLimitsOccupancy(t *testing.T) {
	cfg := testSMConfig()
	h := newSMHarness(t, cfg)
	k := simpleKernel(4, 2, func(b *kbuilder) { b.intOp(1, 0, 0) })
	k.RegsPerThread = cfg.Registers / k.Block.Count() // one block's regs fill the SM
	if !h.sm.CanAccept(k) {
		t.Fatal("SM cannot accept even one block")
	}
	if err := h.sm.AssignBlock(k, 0); err != nil {
		t.Fatal(err)
	}
	if h.sm.CanAccept(k) {
		t.Error("register file oversubscribed")
	}
}

func TestSMSharedMemLimitsOccupancy(t *testing.T) {
	cfg := testSMConfig()
	h := newSMHarness(t, cfg)
	k := simpleKernel(4, 2, func(b *kbuilder) { b.intOp(1, 0, 0) })
	k.SharedMemPerBlock = cfg.SharedMemBytes
	if err := h.sm.AssignBlock(k, 0); err != nil {
		t.Fatal(err)
	}
	if h.sm.CanAccept(k) {
		t.Error("shared memory oversubscribed")
	}
}

// TestCanAcceptCountsFreeSlotsWithoutAllocating: the per-sub-core slot
// check answers what the slot scan it replaced answered (a make per call and
// a walk over every slot), for blocks whose warps do not divide evenly over
// the sub-cores, at every occupancy up to full, and allocates nothing.
func TestCanAcceptCountsFreeSlotsWithoutAllocating(t *testing.T) {
	cfg := testSMConfig() // 4 sub-cores of 4 slots
	cfg.MaxBlocks = 16
	for _, warpsPerBlock := range []int{1, 3, 5, 6, 8} {
		h := newSMHarness(t, cfg)
		k := simpleKernel(16, warpsPerBlock, func(b *kbuilder) { b.intOp(1, 0, 0) })
		k.RegsPerThread = 1
		scan := func() bool {
			if h.sm.usedWarps+warpsPerBlock > cfg.MaxWarps {
				return false
			}
			perSub := make([]int, cfg.SubCores)
			for i := 0; i < warpsPerBlock; i++ {
				perSub[i%cfg.SubCores]++
			}
			for s, need := range perSub {
				free := 0
				for _, slot := range h.sm.subcores[s].warps {
					if slot == nil {
						free++
					}
				}
				if free < need {
					return false
				}
			}
			return true
		}
		// On an empty SM the call gets past the residency checks to the slots.
		if allocs := testing.AllocsPerRun(100, func() { h.sm.CanAccept(k) }); allocs != 0 {
			t.Errorf("CanAccept allocated %v objects a call, want 0", allocs)
		}
		assigned := 0
		for ; h.sm.CanAccept(k); assigned++ {
			if !scan() {
				t.Fatalf("%d warps a block, %d resident: CanAccept says yes, the slot scan no", warpsPerBlock, assigned)
			}
			if err := h.sm.AssignBlock(k, assigned); err != nil {
				t.Fatalf("%d warps a block: CanAccept said yes, then: %v", warpsPerBlock, err)
			}
		}
		if scan() {
			t.Errorf("%d warps a block, %d resident: CanAccept says no, the slot scan yes", warpsPerBlock, assigned)
		}
		if assigned == 0 {
			t.Errorf("%d warps a block: nothing was ever accepted", warpsPerBlock)
		}
	}
}

func TestGTOGreedinessDiffersFromLRR(t *testing.T) {
	// With multiple warps of pure ALU work, GTO keeps issuing from one
	// warp while LRR rotates; both complete all instructions but their
	// stall/issue traces differ. We only require both to finish with
	// identical totals and nonzero cycles.
	mk := func(pol config.SchedPolicy) (uint64, uint64) {
		cfg := testSMConfig()
		cfg.Scheduler = pol
		h := newSMHarness(t, cfg)
		k := simpleKernel(1, 4, func(b *kbuilder) {
			for i := 0; i < 30; i++ {
				b.intOp(trace.Reg(i%28+1), trace.Reg(i%28), 0)
			}
		})
		cyc := h.run(t, k)
		return cyc, h.g.Value("sm.issued")
	}
	gtoCyc, gtoIss := mk(config.GTO)
	lrrCyc, lrrIss := mk(config.LRR)
	if gtoIss != lrrIss {
		t.Errorf("issued differ: GTO %d, LRR %d", gtoIss, lrrIss)
	}
	if gtoCyc == 0 || lrrCyc == 0 {
		t.Error("zero-cycle kernels")
	}
}

func TestLDSTSharedMemoryConflictLatency(t *testing.T) {
	eng := engine.New()
	g := metrics.New()
	u := testLDST("ldst.t", eng, nil, 8, g)

	measure := func(addrs []uint64) uint64 {
		done := false
		in := &trace.Inst{Op: trace.OpLoadShared, ActiveMask: 0xffffffff}
		var arena trace.Arena
		arena.SetLanes(in, addrs)
		u.UseLanes(arena.Store())
		if !u.TryIssue(eng.Cycle(), in, func() { done = true }) {
			t.Fatal("issue refused")
		}
		start := eng.Cycle()
		if _, err := eng.Run(func() bool { return done }, start+10000); err != nil {
			t.Fatal(err)
		}
		return eng.Cycle() - start
	}
	free := make([]uint64, 32)
	for i := range free {
		free[i] = uint64(i) * 4
	}
	conflicted := make([]uint64, 32) // all bank 0
	for i := range conflicted {
		conflicted[i] = uint64(i) * 128
	}
	if lf, lc := measure(free), measure(conflicted); lc <= lf {
		t.Errorf("conflicted access (%d) not slower than conflict-free (%d)", lc, lf)
	}
	if g.Value("ldst.t.shmem_conflict") == 0 {
		t.Error("no conflicts recorded")
	}
}

func TestLDSTQueueBackpressure(t *testing.T) {
	eng := engine.New()
	g := metrics.New()
	refuse := mem.PortFunc(func(*mem.Request) bool { return false })
	u := testLDST("ldst.t", eng, refuse, 2, g)
	in := &trace.Inst{Op: trace.OpLoadGlobal, Dst: 1, ActiveMask: 1} // one lane, at address 0
	if !u.TryIssue(0, in, func() {}) || !u.TryIssue(0, in, func() {}) {
		t.Fatal("first two issues refused")
	}
	if u.TryIssue(0, in, func() {}) {
		t.Fatal("issue accepted beyond queue capacity")
	}
	if g.Value("ldst.t.port_stall") == 0 {
		t.Error("no port stalls recorded")
	}
}

// TestQuickSMAnyKernelCompletes: random small kernels complete without
// deadlock, and the issue count matches the trace's instruction count.
func TestQuickSMAnyKernelCompletes(t *testing.T) {
	f := func(seed int64, blocksRaw, warpsRaw, instsRaw uint8, polRaw uint8) bool {
		blocks := 1 + int(blocksRaw)%3
		warps := 1 + int(warpsRaw)%4
		insts := 1 + int(instsRaw)%25
		cfg := testSMConfig()
		cfg.Scheduler = config.SchedPolicy(int(polRaw) % 3)
		h := newSMHarness(t, cfg)
		rng := seed
		next := func() int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int(rng>>33) % 100
			if v < 0 {
				v = -v
			}
			return v
		}
		k := simpleKernel(blocks, warps, func(b *kbuilder) {
			for i := 0; i < insts; i++ {
				switch v := next(); {
				case v < 50:
					b.intOp(trace.Reg(i%30+1), trace.Reg((i+7)%31), 0)
				case v < 75:
					b.loadAt(trace.Reg(i%30+1), uint64(v)*4096)
				case v < 90:
					b.emit(trace.Inst{Op: trace.OpSP, Dst: trace.Reg(i%30 + 1),
						Src: [2]trace.Reg{trace.Reg((i + 3) % 31)}, ActiveMask: 0xffffffff})
				default:
					b.barrier()
				}
			}
		})
		h.run(t, k)
		want := uint64(blocks * warps * (insts + 1))
		return h.g.Value("sm.issued") == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockSchedulerSnapshotRefusals: a scheduler does not checkpoint
// mid-kernel, and does not load a round-robin cursor beyond its SMs.
func TestBlockSchedulerSnapshotRefusals(t *testing.T) {
	g := metrics.New()
	bs := NewBlockScheduler(make([]*SM, 4), g)
	bs.kernel = &trace.Kernel{Name: "k", Blocks: make([]trace.BlockTrace, 2)}
	if _, err := snap.Save(bs.Snap); !errors.Is(err, snap.ErrNotQuiescent) {
		t.Errorf("Save mid-kernel = %v, want ErrNotQuiescent", err)
	}
	bs.done = 2
	bs.cursor = 3
	b, err := snap.Save(bs.Snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Load(b, NewBlockScheduler(make([]*SM, 4), g).Snap); err != nil {
		t.Errorf("Load onto 4 SMs: %v", err)
	}
	err = snap.Load(b, NewBlockScheduler(make([]*SM, 2), g).Snap)
	if err == nil || !strings.Contains(err.Error(), "cursor 3 out of range") {
		t.Errorf("Load of cursor 3 onto 2 SMs = %v, want an out-of-range refusal", err)
	}
}

// TestAssignBlockPastSlotsUnwinds: a block assigned without CanAccept to an
// SM whose warp slots are full fails with an error naming the SM and the
// block, and leaves the warps already resident as they were.
func TestAssignBlockPastSlotsUnwinds(t *testing.T) {
	h := newSMHarness(t, testSMConfig())
	k := simpleKernel(2, 16, func(b *kbuilder) { b.intOp(1) })
	if err := h.sm.AssignBlock(k, 0); err != nil {
		t.Fatal(err)
	}
	err := h.sm.AssignBlock(k, 1)
	if err == nil || !strings.Contains(err.Error(), "SM0 block 1 of kernel test") {
		t.Fatalf("AssignBlock past the warp slots = %v, want an error naming SM0 block 1", err)
	}
	resident := 0
	for _, sc := range h.sm.subcores {
		resident += sc.resident
	}
	if resident != 16 || len(h.sm.blocks) != 1 {
		t.Errorf("after the failed assignment: %d warps in %d blocks resident, want 16 in 1", resident, len(h.sm.blocks))
	}
}

// TestClassifyStall: a failed issue round is charged to memory if a warp
// waits on a load, else to a barrier, else to a drain (a warp that
// exited but is not done), else to "other".
func TestClassifyStall(t *testing.T) {
	for _, tc := range []struct {
		warps []*Warp
		want  int
	}{
		{[]*Warp{nil, {}}, stallOther},
		{[]*Warp{{exited: true}, {}}, stallDrain},
		{[]*Warp{{exited: true, done: true}}, stallOther},
		{[]*Warp{{exited: true}, {atBarrier: true}}, stallBarrier},
		{[]*Warp{{atBarrier: true}, {exited: true}, {outstanding: 1}}, stallMem},
	} {
		sc := &subCore{warps: tc.warps}
		if got := sc.classifyStall(); got != tc.want {
			t.Errorf("%d warps: classifyStall = %s, want %s", len(tc.warps), stallReasonNames[got], stallReasonNames[tc.want])
		}
	}
}

// TestBlocksPerSM: occupancy is the tightest of the block, warp, register
// and shared-memory limits, and a block's shared memory limits it down to
// a single byte.
func TestBlocksPerSM(t *testing.T) {
	k := simpleKernel(1, 2, func(b *kbuilder) { b.intOp(1) }) // 2 warps, 16 regs a thread
	for _, tc := range []struct {
		name string
		set  func(*config.SM, *trace.Kernel)
		want int
	}{
		{"blocks", func(c *config.SM, _ *trace.Kernel) { c.MaxBlocks = 3 }, 3},
		{"warps", func(c *config.SM, _ *trace.Kernel) { c.MaxWarps = 6 }, 3},
		{"registers", func(c *config.SM, _ *trace.Kernel) { c.Registers = 3 * 2 * 32 * 16 }, 3},
		{"shared memory", func(c *config.SM, k *trace.Kernel) { k.SharedMemPerBlock, c.SharedMemBytes = 1, 3 }, 3},
		{"nothing fits", func(c *config.SM, _ *trace.Kernel) { c.MaxWarps = 1 }, 0},
	} {
		cfg := testSMConfig()
		kk := trace.Kernel{Name: k.Name, Grid: k.Grid, Block: k.Block, RegsPerThread: k.RegsPerThread,
			SharedMemPerBlock: k.SharedMemPerBlock, Blocks: k.Blocks, Store: k.Store}
		cfg.MaxBlocks, cfg.MaxWarps, cfg.Registers, cfg.SharedMemBytes = 32, 64, 1<<16, 1<<16
		tc.set(&cfg, &kk)
		if got := BlocksPerSM(cfg, &kk); got != tc.want {
			t.Errorf("%s: BlocksPerSM = %d, want %d", tc.name, got, tc.want)
		}
	}
}
