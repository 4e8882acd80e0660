package reuse

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"swiftsim/internal/cache"
	"swiftsim/internal/config"
	"swiftsim/internal/smcore"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

func TestDistanceTrackerBasics(t *testing.T) {
	d := newDistanceTracker()
	if got := d.access(0x100); got != infiniteDistance {
		t.Fatalf("cold access distance = %d, want infinite", got)
	}
	if got := d.access(0x100); got != 0 {
		t.Fatalf("immediate reuse distance = %d, want 0", got)
	}
	d.access(0x200)
	d.access(0x300)
	if got := d.access(0x100); got != 2 {
		t.Fatalf("distance after 2 distinct = %d, want 2", got)
	}
	if len(d.last) != 3 {
		t.Fatalf("distinct sectors = %d, want 3", len(d.last))
	}
}

func TestDistanceTrackerRepeatedInterleave(t *testing.T) {
	d := newDistanceTracker()
	// a b a b a b: after warmup each access has distance 1.
	d.access(1)
	d.access(2)
	for i := 0; i < 5; i++ {
		if got := d.access(uint64(1 + i%2)); got != 1 {
			t.Fatalf("interleave distance = %d, want 1", got)
		}
	}
}

// referenceDistance is a naive O(n²) LRU stack distance oracle.
type referenceDistance struct {
	stack []uint64
}

func (r *referenceDistance) access(s uint64) uint64 {
	for i, v := range r.stack {
		if v == s {
			r.stack = append(r.stack[:i], r.stack[i+1:]...)
			r.stack = append(r.stack, s)
			return uint64(len(r.stack) - 1 - i)
		}
	}
	r.stack = append(r.stack, s)
	return infiniteDistance
}

// TestQuickDistanceMatchesOracle: the Fenwick implementation agrees with
// the naive stack oracle on random streams.
func TestQuickDistanceMatchesOracle(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%200
		fast := newDistanceTracker()
		slow := &referenceDistance{}
		for i := 0; i < n; i++ {
			s := uint64(r.Intn(20))
			if fast.access(s) != slow.access(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func smallGPU() config.GPU {
	g := config.RTX2080Ti()
	g.NumSMs = 4
	g.MemPartitions = 2
	return g
}

func ratesSumToOne(t *testing.T, p *Profile) {
	t.Helper()
	check := func(r Rates, what string) {
		sum := r.L1 + r.L2 + r.DRAM
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: rates sum to %v", what, sum)
		}
		if r.L1 < 0 || r.L2 < 0 || r.DRAM < 0 {
			t.Errorf("%s: negative rate %+v", what, r)
		}
	}
	check(p.Default, "default")
	for k, r := range p.PerPC {
		check(r, "per-pc")
		_ = k
	}
}

func TestProfileAppOnWorkloads(t *testing.T) {
	gpu := smallGPU()
	for _, name := range []string{"HOTSPOT", "SM", "PAGERANK"} {
		app, err := workload.Generate(name, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		p := ProfileApp(app, gpu)
		if p.Accesses == 0 {
			t.Errorf("%s: no accesses profiled", name)
		}
		if len(p.PerPC) == 0 {
			t.Errorf("%s: no per-PC entries", name)
		}
		ratesSumToOne(t, p)
	}
}

func TestProfileReuseDistanceOnWorkloads(t *testing.T) {
	gpu := smallGPU()
	app, err := workload.Generate("PATHFINDER", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := ProfileAppReuseDistance(app, gpu)
	if p.Accesses == 0 || len(p.PerPC) == 0 {
		t.Fatal("empty reuse-distance profile")
	}
	ratesSumToOne(t, p)
}

func TestStreamingWorkloadIsDRAMHeavy(t *testing.T) {
	// SM streams huge unique footprints; GEMM's tiles are shared across
	// blocks and re-hit in the caches. The profile must reflect that.
	gpu := smallGPU()
	sm, _ := workload.Generate("SM", 0.5)
	gemm, _ := workload.Generate("GEMM", 0.5)
	pSM := ProfileApp(sm, gpu)
	pGEMM := ProfileApp(gemm, gpu)
	if pSM.Default.DRAM <= pGEMM.Default.DRAM {
		t.Errorf("SM DRAM rate %.3f not above GEMM %.3f",
			pSM.Default.DRAM, pGEMM.Default.DRAM)
	}
	cached := func(r Rates) float64 { return r.L1 + r.L2 }
	if cached(pGEMM.Default) <= cached(pSM.Default) {
		t.Errorf("GEMM cache rate %.3f not above SM %.3f",
			cached(pGEMM.Default), cached(pSM.Default))
	}
}

func TestTwoProfilersBroadlyAgree(t *testing.T) {
	// Functional LRU caches and reuse-distance theory should agree on
	// the broad shape (within 0.3 absolute on the aggregate rates) for a
	// coalesced workload. Strided workloads legitimately diverge:
	// reuse-distance theory assumes full associativity and misses the
	// set-conflict misses the functional caches model.
	gpu := smallGPU()
	app, _ := workload.Generate("PATHFINDER", 0.3)
	a := ProfileApp(app, gpu)
	b := ProfileAppReuseDistance(app, gpu)
	if math.Abs(a.Default.L1-b.Default.L1) > 0.3 {
		t.Errorf("L1 rates disagree: functional %.3f vs reuse %.3f", a.Default.L1, b.Default.L1)
	}
	if math.Abs(a.Default.DRAM-b.Default.DRAM) > 0.3 {
		t.Errorf("DRAM rates disagree: functional %.3f vs reuse %.3f", a.Default.DRAM, b.Default.DRAM)
	}
}

func TestEmptyCountsRates(t *testing.T) {
	var c counts
	r := c.rates()
	if r.L1 != 1 || r.L2 != 0 || r.DRAM != 0 {
		t.Errorf("empty counts rates = %+v, want L1-only", r)
	}
}

func TestStreamCoalesces(t *testing.T) {
	// One warp loading a broadcast address must produce exactly one
	// sector access.
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = 0x1000
	}
	k := &trace.Kernel{
		Name: "k", Grid: trace.Dim3{X: 1, Y: 1, Z: 1}, Block: trace.Dim3{X: 32, Y: 1, Z: 1},
		RegsPerThread: 8,
		Blocks: []trace.BlockTrace{{Warps: []trace.WarpTrace{{
			{PC: 0, Op: trace.OpLoadGlobal, Dst: 1, ActiveMask: 0xffffffff, Addrs: addrs},
			{PC: 8, Op: trace.OpExit, ActiveMask: 0xffffffff},
		}}}},
	}
	app := &trace.App{Name: "t", Suite: "unit", Kernels: []*trace.Kernel{k}}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := ProfileApp(app, smallGPU()).Accesses; n != 1 {
		t.Errorf("profiled %d accesses, want 1 (coalesced broadcast)", n)
	}
}

// access is one sector transaction of the oracle's stream.
type access struct {
	key    Key
	sector uint64
	sm     int
	write  bool
}

// stream is the oracle's own walk of the block-interleaved sector-access
// stream, kept apart from the profilers' kernelWalk so the two are checked
// against each other: blocks round-robin over SMs, warps interleaved
// instruction by instruction, addresses coalesced per instruction.
func stream(app *trace.App, gpu config.GPU, onKernel func(ki int), visit func(a access)) {
	var lanes [trace.WarpSize]uint64
	for ki, k := range app.Kernels {
		onKernel(ki)
		for bi := range k.Blocks {
			warps := k.Blocks[bi].Warps
			maxLen := 0
			for _, w := range warps {
				if len(w) > maxLen {
					maxLen = len(w)
				}
			}
			for i := 0; i < maxLen; i++ {
				for _, w := range warps {
					if i >= len(w) || !w[i].Op.IsGlobalMem() {
						continue
					}
					for _, s := range smcore.CoalesceInto(nil, w[i].Lanes(&lanes), gpu.L1.SectorBytes) {
						visit(access{
							key:    Key{ki, w[i].PC},
							sector: s,
							sm:     bi % gpu.NumSMs,
							write:  w[i].Op == trace.OpStoreGlobal,
						})
					}
				}
			}
		}
	}
}

// serialProfile is the single-pass serial oracle for the two-phase
// profilers: the whole stream through the L1 filter and the shared L2
// model in order, exactly as the pre-parallel implementation did. Static
// ids are handed out in the stream's first-touch order, and the facts come
// from a walk of their own in block → warp → instruction order, each
// instruction's row at its ordinal in that walk.
func serialProfile(app *trace.App, gpu config.GPU,
	newL1 func() func(a access) bool, hitL2 func(a access) bool) *Profile {
	per := make(map[Key]*counts)
	var agg, aggReads counts
	var accesses uint64
	var absorb func(a access) bool
	ids := make([][]Key, len(app.Kernels)) // by kernel, the keys in id order
	onKernel := func(int) { absorb = newL1() }
	stream(app, gpu, onKernel, func(a access) {
		accesses++
		c := per[a.key]
		if c == nil {
			c = &counts{}
			per[a.key] = c
			ids[a.key.Kernel] = append(ids[a.key.Kernel], a.key)
		}
		if !a.write && absorb(a) {
			c.l1++
			agg.l1++
			aggReads.l1++
			return
		}
		if hitL2(a) {
			c.l2++
			agg.l2++
			if !a.write {
				aggReads.l2++
			}
			return
		}
		c.dram++
		agg.dram++
		if !a.write {
			aggReads.dram++
		}
	})
	p := &Profile{
		PerPC:        make(map[Key]Rates, len(per)),
		ByID:         make([][]Rates, len(app.Kernels)),
		Facts:        make([][]Fact, len(app.Kernels)),
		SectorBytes:  gpu.L1.SectorBytes,
		Default:      agg.rates(),
		DefaultReads: aggReads.rates(),
		Accesses:     accesses,
	}
	for k, c := range per {
		p.PerPC[k] = c.rates()
	}
	var lanes [trace.WarpSize]uint64
	for ki, k := range app.Kernels {
		p.ByID[ki] = make([]Rates, len(ids[ki]))
		id := make(map[uint64]uint32)
		for i, key := range ids[ki] {
			p.ByID[ki][i] = p.PerPC[key]
			id[key.PC] = uint32(i)
		}
		p.Facts[ki] = []Fact{}
		for bi := range k.Blocks {
			for _, w := range k.Blocks[bi].Warps {
				for _, in := range w {
					switch {
					case in.Op.IsSharedMem():
						p.Facts[ki] = append(p.Facts[ki], Fact{N: uint32(smcore.SharedBankConflicts(in.Lanes(&lanes)))})
					case in.Op.IsGlobalMem():
						p.Facts[ki] = append(p.Facts[ki], Fact{ID: id[in.PC], N: uint32(len(smcore.CoalesceInto(nil, in.Lanes(&lanes), gpu.L1.SectorBytes)))})
					}
				}
			}
		}
	}
	return p
}

// TestProfileParallelMatchesSerial: the two-phase (parallel-L1, serial-L2)
// profilers must reproduce the serial single-pass profile bit for bit —
// every per-PC rate, the aggregates, the access count, and every memory
// instruction's facts (ALEXNET's shared-memory tiles included) — under
// every replacement policy, at 2 partitions and at the 22 every preset's
// aggregate L2 is built from. The oracle builds fresh caches; the profilers
// reset the models earlier cases left behind.
func TestProfileParallelMatchesSerial(t *testing.T) {
	for _, name := range []string{"BFS", "LU", "PATHFINDER", "ALEXNET"} {
		app, err := workload.Generate(name, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if len(app.Kernels) < 2 && name != "PATHFINDER" {
			t.Fatalf("%s: want a multi-kernel app to exercise the shared L2 carry-over", name)
		}
		for _, parts := range []int{2, 22} {
			for _, rep := range []config.Replacement{config.LRU, config.FIFO, config.Random} {
				gpu := smallGPU()
				gpu.MemPartitions = parts
				gpu.L1.Replacement, gpu.L2.Replacement = rep, rep
				wantFunc := serialProfile(app, gpu,
					func() func(a access) bool {
						l1s := make([]*cache.Functional, gpu.NumSMs)
						for i := range l1s {
							l1s[i] = cache.NewFunctional(gpu.L1)
						}
						return func(a access) bool { return l1s[a.sm].Access(a.sector, false) }
					},
					func() func(a access) bool {
						l2cfg := gpu.L2
						l2cfg.Sets *= gpu.MemPartitions
						l2 := cache.NewFunctional(l2cfg)
						return func(a access) bool { return l2.Access(a.sector, a.write) }
					}())
				if got := ProfileApp(app, gpu); !reflect.DeepEqual(got, wantFunc) {
					t.Errorf("%s, %d partitions, %v: ProfileApp diverged from the serial oracle", name, parts, rep)
				}
			}

			gpu := smallGPU()
			gpu.MemPartitions = parts
			l1Cap := uint64(gpu.L1.Sets * gpu.L1.Ways * gpu.L1.SectorsPerLine())
			l2Cap := uint64(gpu.L2.Sets*gpu.L2.Ways*gpu.L2.SectorsPerLine()) * uint64(gpu.MemPartitions)
			wantRD := serialProfile(app, gpu,
				func() func(a access) bool {
					l1 := make([]*distanceTracker, gpu.NumSMs)
					for i := range l1 {
						l1[i] = newDistanceTracker()
					}
					return func(a access) bool { return l1[a.sm].access(a.sector) < l1Cap }
				},
				func() func(a access) bool {
					l2 := newDistanceTracker()
					return func(a access) bool { return l2.access(a.sector) < l2Cap }
				}())
			if got := ProfileAppReuseDistance(app, gpu); !reflect.DeepEqual(got, wantRD) {
				t.Errorf("%s, %d partitions: ProfileAppReuseDistance diverged from the serial oracle", name, parts)
			}
		}
	}
}

// TestL2LevelSetsAreNotPowersOfTwo pins the aggregate L2 set counts phase
// two models for each preset, which internal/cache's
// TestAggregateL2ReachableSets shows are only partly reachable (DESIGN.md
// §12.3): a fix to either moves Memory profiles, so it must be deliberate.
func TestL2LevelSetsAreNotPowersOfTwo(t *testing.T) {
	for preset, sets := range map[string]int{"RTX2080Ti": 11264, "RTX3060": 6144, "RTX3090": 12288} {
		gpu, _ := config.Preset(preset)
		if got := L2LevelOf(gpu, false).Sets; got != sets {
			t.Errorf("%s: aggregate L2 has %d sets, pinned %d", preset, got, sets)
		}
	}
}

// TestFilterL1PanicsOnItsCaller: a kernel walk that panics on one of phase
// one's workers panics FilterL1 on the caller's goroutine, which can recover
// it; on the worker it would end the process.
func TestFilterL1PanicsOnItsCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	app, err := workload.Generate("GRU", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Kernels) < 2 {
		t.Fatal("want a multi-kernel app, so that workers walk it")
	}
	defer func() {
		if recover() == nil {
			t.Error("a walk over no SMs returned")
		}
	}()
	// No SMs divides by zero in the walk.
	FilterL1(app, L1Geometry{CoalesceBytes: 32, L1: L1GeometryOf(app, smallGPU(), false).L1})
}

// TestConcurrentPhasesMatchSerial: filters and replays running at once,
// each taking whichever spare walk or L2 model the pools hand it, return
// what serial calls do.
func TestConcurrentPhasesMatchSerial(t *testing.T) {
	app, err := workload.Generate("BFS", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	gpu := smallGPU()
	var geoms []L1Geometry
	var filtered []*L1Filtered
	for _, sms := range []int{2, 3} {
		for _, distance := range []bool{false, true} {
			g := gpu
			g.NumSMs = sms
			geoms = append(geoms, L1GeometryOf(app, g, distance))
			filtered = append(filtered, FilterL1(app, geoms[len(geoms)-1]))
		}
	}
	one := filtered[0]
	var levels []Level
	var want []*Profile
	for _, parts := range []int{2, 22} {
		for _, rep := range []config.Replacement{config.LRU, config.FIFO, config.Random} {
			g := gpu
			g.MemPartitions, g.L2.Replacement = parts, rep
			levels = append(levels, L2LevelOf(g, false))
			want = append(want, one.ReplayL2(levels[len(levels)-1]))
		}
		g := gpu
		g.MemPartitions = parts
		levels = append(levels, L2LevelOf(g, true))
		want = append(want, one.ReplayL2(levels[len(levels)-1]))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range geoms {
				j := (i + w) % len(geoms)
				if got := FilterL1(app, geoms[j]); !reflect.DeepEqual(got, filtered[j]) {
					t.Errorf("worker %d: concurrent filter under %+v diverged from the serial one", w, geoms[j])
				}
			}
			for i := range levels {
				j := (i + w) % len(levels)
				if got := one.ReplayL2(levels[j]); !reflect.DeepEqual(got, want[j]) {
					t.Errorf("worker %d: concurrent replay of %+v diverged from the serial one", w, levels[j])
				}
			}
		}()
	}
	wg.Wait()
}
