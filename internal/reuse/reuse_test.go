package reuse

import (
	"math"
	"math/rand"
	"reflect"
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
	if d.Distinct() != 3 {
		t.Fatalf("Distinct = %d, want 3", d.Distinct())
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

func TestRatesFallback(t *testing.T) {
	p := &Profile{
		PerPC:   map[Key]Rates{{0, 8}: {L1: 1}},
		Default: Rates{DRAM: 1},
	}
	if r := p.Rates(0, 8); r.L1 != 1 {
		t.Errorf("known PC rates = %+v", r)
	}
	if r := p.Rates(0, 16); r.DRAM != 1 {
		t.Errorf("fallback rates = %+v", r)
	}
	if r := p.Rates(1, 8); r.DRAM != 1 {
		t.Errorf("kernel-mismatch rates = %+v", r)
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
					for _, s := range smcore.Coalesce(w[i].Addrs, gpu.L1.SectorBytes) {
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
// model in order, exactly as the pre-parallel implementation did.
func serialProfile(app *trace.App, gpu config.GPU,
	newL1 func() func(a access) bool, hitL2 func(a access) bool) *Profile {
	per := make(map[Key]*counts)
	var agg, aggReads counts
	var accesses uint64
	var absorb func(a access) bool
	onKernel := func(int) { absorb = newL1() }
	stream(app, gpu, onKernel, func(a access) {
		accesses++
		c := per[a.key]
		if c == nil {
			c = &counts{}
			per[a.key] = c
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
		Default:      agg.rates(),
		DefaultReads: aggReads.rates(),
		Accesses:     accesses,
	}
	for k, c := range per {
		p.PerPC[k] = c.rates()
	}
	return p
}

// TestProfileParallelMatchesSerial: the two-phase (parallel-L1, serial-L2)
// profilers must reproduce the serial single-pass profile bit for bit —
// every per-PC rate, the aggregates, and the access count.
func TestProfileParallelMatchesSerial(t *testing.T) {
	gpu := smallGPU()
	for _, name := range []string{"BFS", "LU", "PATHFINDER"} {
		app, err := workload.Generate(name, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if len(app.Kernels) < 2 && name != "PATHFINDER" {
			t.Fatalf("%s: want a multi-kernel app to exercise the shared L2 carry-over", name)
		}

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
			t.Errorf("%s: ProfileApp diverged from the serial oracle", name)
		}

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
			t.Errorf("%s: ProfileAppReuseDistance diverged from the serial oracle", name)
		}
	}
}
