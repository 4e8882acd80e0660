package analytic

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"swiftsim/internal/config"
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/reuse"
	"swiftsim/internal/smcore"
	"swiftsim/internal/trace"
)

func runUntil(t *testing.T, eng *engine.Engine, done *bool) uint64 {
	t.Helper()
	start := eng.Cycle()
	if _, err := eng.Run(func() bool { return *done }, start+1_000_000); err != nil {
		t.Fatal(err)
	}
	return eng.Cycle() - start
}

func TestALUModelFixedLatency(t *testing.T) {
	eng := engine.New()
	g := metrics.New()
	u := NewALUModel("alu.a", eng, 4, 2, g)
	done := false
	in := &trace.Inst{Op: trace.OpInt, ActiveMask: 1}
	if !u.TryIssue(0, in, func() { done = true }) {
		t.Fatal("analytical ALU refused issue")
	}
	if lat := runUntil(t, eng, &done); lat != 4 {
		t.Errorf("latency = %d, want 4", lat)
	}
	if u.Busy() {
		t.Error("analytical unit reports busy")
	}
}

func TestALUModelContentionAccumulates(t *testing.T) {
	eng := engine.New()
	g := metrics.New()
	u := NewALUModel("alu.a", eng, 4, 2, g)
	in := &trace.Inst{Op: trace.OpInt, ActiveMask: 1}
	var completions []uint64
	n := 5
	remaining := n
	done := false
	for i := 0; i < n; i++ {
		u.TryIssue(0, in, func() {
			completions = append(completions, eng.Cycle())
			remaining--
			if remaining == 0 {
				done = true
			}
		})
	}
	runUntil(t, eng, &done)
	// Issue port: starts at 0,2,4,6,8; completions at 4,6,8,10,12.
	want := []uint64{4, 6, 8, 10, 12}
	for i := range want {
		if completions[i] != want[i] {
			t.Fatalf("completions = %v, want %v", completions, want)
		}
	}
	// Contention: 0+2+4+6+8 = 20 cycles.
	if got := g.Value("alu.a.contention_cycles"); got != 20 {
		t.Errorf("contention_cycles = %d, want 20", got)
	}
}

// TestQuickALUModelMatchesPipelineThroughput: for back-to-back issues the
// analytical model's completion times equal the cycle-accurate pipeline's
// (same latency, same initiation interval, generous writeback port).
func TestQuickALUModelMatchesPipelineThroughput(t *testing.T) {
	f := func(latRaw, iiRaw, nRaw uint8) bool {
		lat := 1 + int(latRaw)%16
		ii := 1 + int(iiRaw)%8
		n := 1 + int(nRaw)%20
		in := &trace.Inst{Op: trace.OpInt, ActiveMask: 1}

		// Analytical completions.
		engA := engine.New()
		uA := NewALUModel("a", engA, lat, ii, metrics.New())
		var compA []uint64
		doneA := false
		remA := n
		for i := 0; i < n; i++ {
			uA.TryIssue(0, in, func() {
				compA = append(compA, engA.Cycle())
				if remA--; remA == 0 {
					doneA = true
				}
			})
		}
		if _, err := engA.Run(func() bool { return doneA }, 1_000_000); err != nil {
			return false
		}

		// The pipeline issues one instruction per ii cycles and
		// completes lat cycles later (wb port wide enough).
		for i, c := range compA {
			if want := uint64(i*ii + lat); c != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthMeter(t *testing.T) {
	m := NewBandwidthMeterRate(0.5) // two partitions
	if d := m.Reserve(0, 4); d != 0 {
		t.Errorf("first reserve delay = %d, want 0", d)
	}
	// Channel busy until cycle 2; a request at 0 queues 2 cycles.
	if d := m.Reserve(0, 4); d != 2 {
		t.Errorf("second reserve delay = %d, want 2", d)
	}
	// After the channel drains, no delay.
	if d := m.Reserve(100, 1); d != 0 {
		t.Errorf("late reserve delay = %d, want 0", d)
	}
}

func TestBandwidthMeterClamp(t *testing.T) {
	m := NewBandwidthMeterRate(0)
	if m.cyclesPerSector != 1 {
		t.Errorf("cyclesPerSector = %v, want 1 (clamped)", m.cyclesPerSector)
	}
}

func memParams(prof *reuse.Profile, kernel *int) MemModelParams {
	return MemModelParams{
		Profile:          prof,
		KernelIndex:      kernel,
		L1Latency:        32,
		L2Latency:        188,
		DRAMLatency:      227,
		SharedMemLatency: 24,
		SectorBytes:      32,
		Lanes:            4,
		DRAM:             NewBandwidthMeterRate(1.0 / 22),
	}
}

func coalescedAddrs(base uint64) []uint64 {
	a := make([]uint64, 32)
	for i := range a {
		a[i] = base + uint64(i)*4
	}
	return a
}

// profiled profiles an app of one single-warp kernel per instruction stream
// in kernels, each closed with an EXIT and numbered, through
// reuse.ProfileApp on the RTX 2080 Ti, whose 32-byte sectors are
// memParams'. rates, where not nil, then replaces the profiled rates of the
// named static instructions, in PerPC and ByID alike, so a test sets Eq. 1's
// inputs while the unit still reads the facts the profiler recorded. It
// returns the profile and, per kernel, the instructions to issue.
func profiled(t *testing.T, rates map[reuse.Key]reuse.Rates, kernels ...[]trace.Inst) (*reuse.Profile, [][]*trace.Inst) {
	t.Helper()
	app := &trace.App{Name: "unit", Suite: "test"}
	for ki, insts := range kernels {
		w := append(trace.WarpTrace(slices.Clone(insts)), trace.Inst{Op: trace.OpExit, ActiveMask: 1})
		k := &trace.Kernel{
			Name: fmt.Sprintf("k%d", ki), Grid: trace.Dim3{X: 1, Y: 1, Z: 1}, Block: trace.Dim3{X: 32, Y: 1, Z: 1},
			RegsPerThread: 16, Blocks: []trace.BlockTrace{{Warps: []trace.WarpTrace{w}}},
		}
		k.NumberMem()
		app.Kernels = append(app.Kernels, k)
	}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	prof := reuse.ProfileApp(app, config.RTX2080Ti())
	issued := make([][]*trace.Inst, len(app.Kernels))
	for ki, k := range app.Kernels {
		w := k.Blocks[0].Warps[0]
		for i := range w[:len(w)-1] {
			in := &w[i]
			issued[ki] = append(issued[ki], in)
			r, ok := rates[reuse.Key{Kernel: ki, PC: in.PC}]
			if !ok || !in.Op.IsGlobalMem() {
				continue
			}
			prof.PerPC[reuse.Key{Kernel: ki, PC: in.PC}] = r
			prof.ByID[ki][prof.Facts[ki][in.MemIndex].ID] = r
		}
	}
	return prof, issued
}

func TestMemModelEquation1(t *testing.T) {
	// A single-sector load at a PC with known rates must complete in
	// exactly Eq. 1's expected latency (zero contention, first access).
	kernel := 0
	prof, insts := profiled(t, map[reuse.Key]reuse.Rates{{Kernel: 0, PC: 16}: {L1: 0.5, L2: 0.25, DRAM: 0.25}},
		[]trace.Inst{{Op: trace.OpLoadGlobal, PC: 16, Dst: 1, ActiveMask: 1, Addrs: []uint64{0x1000}}})
	eng := engine.New()
	u := NewMemModel("mem", eng, memParams(prof, &kernel), metrics.New())
	done := false
	if !u.TryIssue(0, insts[0][0], func() { done = true }) {
		t.Fatal("issue refused")
	}
	// Eq. 1: 32*0.5 + 188*0.25 + 227*0.25 = 16 + 47 + 56.75 = 119.75 → 119.
	if lat := runUntil(t, eng, &done); lat != 119 {
		t.Errorf("latency = %d, want 119 (Eq. 1)", lat)
	}
}

func TestMemModelMultiSectorSlower(t *testing.T) {
	// A load of many sectors completes at its slowest sector: with a
	// DRAM fraction of 0.25, four sectors almost surely include a DRAM
	// access, so the latency approaches the DRAM term plus the
	// divergence serialization penalty.
	kernel := 0
	prof, insts := profiled(t, map[reuse.Key]reuse.Rates{{Kernel: 0, PC: 16}: {L1: 0.5, L2: 0.25, DRAM: 0.25}},
		[]trace.Inst{{Op: trace.OpLoadGlobal, PC: 16, Dst: 1, ActiveMask: 0xffffffff, Addrs: coalescedAddrs(0x1000)}})
	if n := prof.Facts[0][0].N; n != 4 {
		t.Fatalf("the profiler recorded %d sectors for 32 coalesced lanes, want 4", n)
	}
	eng := engine.New()
	u := NewMemModel("mem", eng, memParams(prof, &kernel), metrics.New())
	done := false
	u.TryIssue(0, insts[0][0], func() { done = true })
	lat := runUntil(t, eng, &done)
	if lat <= 119 {
		t.Errorf("multi-sector latency = %d, want > single-sector 119", lat)
	}
	if lat > 300 {
		t.Errorf("multi-sector latency = %d, implausibly high", lat)
	}
}

func TestMemModelColdLoadPaysDRAM(t *testing.T) {
	// Left as profiled, the only access of a trace misses both caches.
	kernel := 0
	prof, insts := profiled(t, nil,
		[]trace.Inst{{Op: trace.OpLoadGlobal, PC: 99, Dst: 1, ActiveMask: 1, Addrs: []uint64{0}}})
	if r := prof.ByID[0][0]; r != (reuse.Rates{DRAM: 1}) {
		t.Fatalf("a cold load profiled at %+v, want all DRAM", r)
	}
	eng := engine.New()
	u := NewMemModel("mem", eng, memParams(prof, &kernel), metrics.New())
	done := false
	u.TryIssue(0, insts[0][0], func() { done = true })
	if lat := runUntil(t, eng, &done); lat != 227 {
		t.Errorf("latency = %d, want 227 (DRAM)", lat)
	}
}

func TestMemModelKernelIndexDisambiguates(t *testing.T) {
	kernel := 1
	load := []trace.Inst{{Op: trace.OpLoadGlobal, PC: 8, Dst: 1, ActiveMask: 1, Addrs: []uint64{0}}}
	prof, insts := profiled(t, map[reuse.Key]reuse.Rates{
		{Kernel: 0, PC: 8}: {DRAM: 1},
		{Kernel: 1, PC: 8}: {L1: 1},
	}, load, load)
	eng := engine.New()
	u := NewMemModel("mem", eng, memParams(prof, &kernel), metrics.New())
	done := false
	u.TryIssue(0, insts[1][0], func() { done = true })
	if lat := runUntil(t, eng, &done); lat != 32 {
		t.Errorf("latency = %d, want 32 (kernel-1 profile: L1)", lat)
	}
}

func TestMemModelStore(t *testing.T) {
	kernel := 0
	prof, insts := profiled(t, nil,
		[]trace.Inst{{Op: trace.OpStoreGlobal, PC: 8, ActiveMask: 1, Addrs: []uint64{0}}})
	eng := engine.New()
	u := NewMemModel("mem", eng, memParams(prof, &kernel), metrics.New())
	done := false
	u.TryIssue(0, insts[0][0], func() { done = true })
	// Stores retire at L1 write-through latency, not Eq. 1's DRAM term.
	if lat := runUntil(t, eng, &done); lat != 32 {
		t.Errorf("store latency = %d, want 32", lat)
	}
}

func TestMemModelSharedMemory(t *testing.T) {
	kernel := 0
	// 32 lanes all hitting bank 0: degree 32 → 24 + 4*31 = 148 cycles.
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = uint64(i) * 128
	}
	prof, insts := profiled(t, nil,
		[]trace.Inst{{Op: trace.OpLoadShared, PC: 8, Dst: 1, ActiveMask: 0xffffffff, Addrs: addrs}})
	eng := engine.New()
	g := metrics.New()
	u := NewMemModel("mem", eng, memParams(prof, &kernel), g)
	done := false
	u.TryIssue(0, insts[0][0], func() { done = true })
	if lat := runUntil(t, eng, &done); lat != 148 {
		t.Errorf("shared latency = %d, want 148", lat)
	}
	// No global transactions for shared memory.
	if g.Value("mem.transactions") != 0 {
		t.Errorf("transactions = %d, want 0", g.Value("mem.transactions"))
	}
}

func TestMemModelPortOccupancySerializes(t *testing.T) {
	kernel := 0
	var loads []trace.Inst
	for i := 0; i < 3; i++ {
		loads = append(loads, trace.Inst{Op: trace.OpLoadGlobal, PC: 8, Dst: 1, ActiveMask: 0xffffffff,
			Addrs: coalescedAddrs(uint64(i) * 0x10000)})
	}
	prof, insts := profiled(t, map[reuse.Key]reuse.Rates{{Kernel: 0, PC: 8}: {L1: 1}}, loads)
	eng := engine.New()
	g := metrics.New()
	u := NewMemModel("mem", eng, memParams(prof, &kernel), g)
	var comp []uint64
	done := false
	rem := 3
	for _, in := range insts[0] {
		u.TryIssue(0, in, func() {
			comp = append(comp, eng.Cycle())
			if rem--; rem == 0 {
				done = true
			}
		})
	}
	runUntil(t, eng, &done)
	// 4 sectors / 4 lanes = 1 cycle occupancy each: completions 32,33,34.
	want := []uint64{32, 33, 34}
	for i := range want {
		if comp[i] != want[i] {
			t.Fatalf("completions = %v, want %v", comp, want)
		}
	}
	if g.Value("mem.contention_cycles") == 0 {
		t.Error("no contention recorded")
	}
}

func TestMemModelDRAMBandwidthContention(t *testing.T) {
	// Many DRAM-bound loads must see growing completion times (bandwidth
	// queueing), unlike L1-bound loads.
	var loads []trace.Inst
	for i := 0; i < 50; i++ {
		loads = append(loads, trace.Inst{Op: trace.OpLoadGlobal, PC: 8, Dst: 1, ActiveMask: 0xffffffff,
			Addrs: coalescedAddrs(uint64(i) * 0x10000)})
	}
	measure := func(rates reuse.Rates) uint64 {
		kernel := 0
		prof, insts := profiled(t, map[reuse.Key]reuse.Rates{{Kernel: 0, PC: 8}: rates}, loads)
		eng := engine.New()
		p := memParams(prof, &kernel)
		p.DRAM = NewBandwidthMeterRate(1) // narrow channel
		u := NewMemModel("mem", eng, p, metrics.New())
		done := false
		rem := len(insts[0])
		for _, in := range insts[0] {
			u.TryIssue(0, in, func() {
				if rem--; rem == 0 {
					done = true
				}
			})
		}
		return runUntil(t, eng, &done)
	}
	dramBound := measure(reuse.Rates{DRAM: 1})
	l1Bound := measure(reuse.Rates{L1: 1})
	if dramBound <= l1Bound+100 {
		t.Errorf("DRAM-bound total %d not clearly above L1-bound %d", dramBound, l1Bound)
	}
}

// TestMemModelRefusesOtherSectorSize: a profile's sector counts hold for the
// sector size it was coalesced at only, so a unit modelling another one
// refuses it at construction instead of issuing with wrong counts.
func TestMemModelRefusesOtherSectorSize(t *testing.T) {
	kernel := 0
	prof, _ := profiled(t, nil, []trace.Inst{{Op: trace.OpLoadGlobal, PC: 8, Dst: 1, ActiveMask: 1, Addrs: []uint64{0}}})
	p := memParams(prof, &kernel)
	p.SectorBytes = 64
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "coalesced at 32") {
			t.Errorf("NewMemModel over a 32-byte profile at 64-byte sectors: recovered %v, want a refusal naming 32", r)
		}
	}()
	NewMemModel("mem", engine.New(), p, metrics.New())
}

func TestBackendHitMissLatency(t *testing.T) {
	eng := engine.New()
	g := metrics.New()
	gpu := config.RTX2080Ti()
	gpu.MemPartitions = 2
	b := NewBackend("be", eng, gpu, g)

	measure := func(addr uint64) uint64 {
		done := false
		r := &mem.Request{Addr: addr, Size: 32, Done: func() { done = true }}
		if !b.Accept(r) {
			t.Fatal("backend refused")
		}
		start := eng.Cycle()
		if _, err := eng.Run(func() bool { return done }, start+100000); err != nil {
			t.Fatal(err)
		}
		return eng.Cycle() - start
	}
	missLat := measure(0x1000)
	hitLat := measure(0x1000)
	if hitLat >= missLat {
		t.Errorf("L2 hit (%d) not faster than miss (%d)", hitLat, missLat)
	}
	wantHit := uint64(2*gpu.NoCLatency + gpu.L2.HitLatency)
	if hitLat < wantHit || hitLat > wantHit+4 {
		t.Errorf("hit latency = %d, want about %d", hitLat, wantHit)
	}
	if g.Value("be.l2_hit") != 1 || g.Value("be.l2_miss") != 1 {
		t.Errorf("hit/miss counters = %d/%d", g.Value("be.l2_hit"), g.Value("be.l2_miss"))
	}
}

func TestBackendWrites(t *testing.T) {
	eng := engine.New()
	g := metrics.New()
	b := NewBackend("be", eng, config.RTX2080Ti(), g)
	// Writes without Done complete silently; the backend must stay
	// consistent and count them.
	for i := 0; i < 5; i++ {
		if !b.Accept(&mem.Request{Addr: uint64(i) * 4096, Write: true, Size: 32}) {
			t.Fatal("write refused")
		}
	}
	if g.Value("be.write") != 5 {
		t.Errorf("writes = %d, want 5", g.Value("be.write"))
	}
	// A read of a previously written sector hits (write-allocate).
	done := false
	r := &mem.Request{Addr: 0, Size: 32, Done: func() { done = true }}
	b.Accept(r)
	if _, err := eng.Run(func() bool { return done }, 100000); err != nil {
		t.Fatal(err)
	}
	if r.ServicedBy != mem.LevelL2 {
		t.Errorf("read after write serviced by %v, want L2", r.ServicedBy)
	}
}

// TestIssueToWritebackAllocatesNothing is the gate on the SM core's
// issue→writeback path with analytical units: the in-flight record and its
// bound completion are recycled, the memory model reads its sector counts
// from the profile's rows and its powers from the run's, and each unit
// schedules one event. Once the record free list and
// the event store's node slab have reached their working size, issuing and
// completing instructions of a resident warp allocates nothing, under the
// built-in policy and under a plug-in Picker alike (the tried predicate a
// Picker receives is bound once per sub-core, not built per round).
func TestIssueToWritebackAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		picker func(smID, sub int) smcore.Picker
	}{
		{"built-in", nil},
		{"picker", func(int, int) smcore.Picker { return smcore.NewMemFirstPicker() }},
	} {
		t.Run(tc.name, func(t *testing.T) { issueToWritebackAllocatesNothing(t, tc.picker) })
	}
}

func issueToWritebackAllocatesNothing(t *testing.T, picker func(smID, sub int) smcore.Picker) {
	// One block of four warps, each a long loop of arithmetic, divergent
	// global loads, stores and shared-memory accesses.
	k := &trace.Kernel{
		Name: "stream", Grid: trace.Dim3{X: 1, Y: 1, Z: 1}, Block: trace.Dim3{X: 128, Y: 1, Z: 1},
		RegsPerThread: 16, Blocks: make([]trace.BlockTrace, 1),
	}
	scattered := make([]uint64, 32)
	for i := range scattered {
		scattered[i] = uint64(i) * 128
	}
	for w := 0; w < 4; w++ {
		var wt trace.WarpTrace
		for i := 0; i < 30_000; i++ {
			in := trace.Inst{PC: uint64(8 * (i % 100)), Dst: trace.Reg(1 + i%8), ActiveMask: 0xffffffff}
			switch i % 5 {
			case 0:
				in.Op, in.Addrs = trace.OpLoadGlobal, scattered
			case 1:
				in.Op, in.Addrs = trace.OpStoreGlobal, coalescedAddrs(0x1000)
			case 2:
				in.Op, in.Addrs = trace.OpLoadShared, coalescedAddrs(0)
			case 3:
				in.Op = trace.OpSP
			default:
				in.Op = trace.OpInt
			}
			wt = append(wt, in)
		}
		k.Blocks[0].Warps = append(k.Blocks[0].Warps, append(wt, trace.Inst{Op: trace.OpExit, ActiveMask: 0xffffffff}))
	}
	k.NumberMem()
	app := &trace.App{Name: "stream", Suite: "test", Kernels: []*trace.Kernel{k}}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}

	eng := engine.New()
	g := metrics.New()
	kernel := 0
	// One unit per sub-core, as an assembly builds them: one class, sharing
	// the run's Eq. 1 rows.
	sibs := NewMemModels(config.RTX2080Ti().SM.SubCores, "mem", eng, memParams(reuse.ProfileApp(app, config.RTX2080Ti()), &kernel), g)
	units := NewHybridUnits(
		func(smID, sub int, class trace.OpClass) smcore.Unit {
			return NewALUModel("alu."+class.String(), eng, 4, 1, g)
		},
		func(smID, sub int) smcore.Unit { return &sibs[sub] })
	units.Scheduler = picker
	sm, err := smcore.NewSM(0, config.RTX2080Ti().SM, eng, units, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Register(sm)

	if err := sm.AssignBlock(k, 0); err != nil {
		t.Fatal(err)
	}

	issued := g.Counter("sm.issued")
	var target uint64
	reached := func() bool { return issued.Value() >= target }
	step := func() {
		target = issued.Value() + 200
		if _, err := eng.Run(reached, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("issuing and completing 200 instructions allocated %v objects, want 0", allocs)
	}
	if n := issued.Value(); n < 24_000 || sm.ResidentBlocks() != 1 {
		t.Errorf("measured %d instructions with %d blocks resident; want the warps still mid-stream", n, sm.ResidentBlocks())
	}
}
