package sim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// smallGPU shrinks the 2080 Ti so integration tests run fast.
func smallGPU() config.GPU {
	g := config.RTX2080Ti()
	g.NumSMs = 8
	g.MemPartitions = 4
	return g
}

func mustApp(t *testing.T, name string, scale float64) *trace.App {
	t.Helper()
	app, err := workload.Generate(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestAllKindsCompleteAndAgreeOnWork(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "PATHFINDER", 0.2)
	var results []*Result
	for _, kind := range []Kind{Detailed, Basic, Memory} {
		res, err := Run(app, gpu, Options{Kind: kind})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Cycles == 0 {
			t.Errorf("%v: zero cycles", kind)
		}
		results = append(results, res)
	}
	// Every configuration must issue exactly the trace's instructions.
	want := uint64(app.Insts())
	for _, r := range results {
		if r.Instructions != want {
			t.Errorf("%v: issued %d instructions, want %d", r.Kind, r.Instructions, want)
		}
	}
}

func TestKindsPredictSimilarCycles(t *testing.T) {
	// The paper's claim: hybrid simplification degrades accuracy only
	// mildly. The three configurations must agree within 2x on total
	// cycles (they usually agree much closer).
	gpu := smallGPU()
	for _, name := range []string{"HOTSPOT", "SM", "BFS"} {
		app := mustApp(t, name, 0.15)
		var cycles [3]uint64
		for i, kind := range []Kind{Detailed, Basic, Memory} {
			res, err := Run(app, gpu, Options{Kind: kind})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, kind, err)
			}
			cycles[i] = res.Cycles
		}
		for i := 1; i < 3; i++ {
			ratio := float64(cycles[i]) / float64(cycles[0])
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("%s: %v predicts %d cycles vs Detailed %d (ratio %.2f)",
					name, []Kind{Detailed, Basic, Memory}[i], cycles[i], cycles[0], ratio)
			}
		}
	}
}

func TestMemorySkipsMoreCycles(t *testing.T) {
	// Swift-Sim-Memory must fast-forward far more of simulated time than
	// the Detailed baseline on a memory-bound app — that is where its
	// speedup comes from.
	gpu := smallGPU()
	app := mustApp(t, "SM", 0.15)
	det, err := Run(app, gpu, Options{Kind: Detailed})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Run(app, gpu, Options{Kind: Memory})
	if err != nil {
		t.Fatal(err)
	}
	detFrac := float64(det.SkippedCycles) / float64(det.TickedCycles+det.SkippedCycles)
	memFrac := float64(mem.SkippedCycles) / float64(mem.TickedCycles+mem.SkippedCycles)
	if memFrac <= detFrac {
		t.Errorf("Memory skipped fraction %.3f not above Detailed %.3f", memFrac, detFrac)
	}
	if mem.TickedCycles >= det.TickedCycles {
		t.Errorf("Memory ticked %d cycles, Detailed %d; hybrid should tick fewer",
			mem.TickedCycles, det.TickedCycles)
	}
}

func TestInventoryReflectsHybridization(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "GAUSSIAN", 0.1)
	countKinds := func(inv []engine.ModuleInfo) (ca, an int) {
		for _, m := range inv {
			if m.Kind == engine.Analytical {
				an++
			} else {
				ca++
			}
		}
		return
	}
	det, err := Run(app, gpu, Options{Kind: Detailed})
	if err != nil {
		t.Fatal(err)
	}
	if _, an := countKinds(det.Inventory); an != 0 {
		t.Errorf("Detailed inventory contains %d analytical modules", an)
	}
	bas, err := Run(app, gpu, Options{Kind: Basic})
	if err != nil {
		t.Fatal(err)
	}
	if _, an := countKinds(bas.Inventory); an == 0 {
		t.Error("Basic inventory contains no analytical modules")
	}
	memr, err := Run(app, gpu, Options{Kind: Memory})
	if err != nil {
		t.Fatal(err)
	}
	_, anBasic := countKinds(bas.Inventory)
	_, anMem := countKinds(memr.Inventory)
	if anMem <= anBasic {
		t.Errorf("Memory (%d analytical) not more hybridized than Basic (%d)", anMem, anBasic)
	}
}

func TestHitRateSources(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "MVT", 0.15)
	a, err := Run(app, gpu, Options{Kind: Memory, HitRates: FunctionalCaches})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(app, gpu, Options{Kind: Memory, HitRates: ReuseDistance})
	if err != nil {
		t.Fatal(err)
	}
	// Different hit-rate sources give different but same-magnitude
	// predictions.
	ratio := float64(a.Cycles) / float64(b.Cycles)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("hit-rate sources disagree wildly: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestRunRejectsInvalidInputs(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "LU", 0.1)
	bad := gpu
	bad.NumSMs = 0
	if _, err := Run(app, bad, Options{}); err == nil {
		t.Error("invalid GPU accepted")
	}
	badApp := &trace.App{Name: "x"}
	if _, err := Run(badApp, gpu, Options{}); err == nil {
		t.Error("invalid app accepted")
	}
}

func TestDeterministicCycles(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "SSSP", 0.15)
	for _, kind := range []Kind{Detailed, Basic, Memory} {
		a, err := Run(app, gpu, Options{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(app, gpu, Options{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles != b.Cycles {
			t.Errorf("%v: nondeterministic cycles %d vs %d", kind, a.Cycles, b.Cycles)
		}
	}
}

func TestLatencyScaleIncreasesCycles(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "SRAD", 0.1)
	base, err := Run(app, gpu, Options{Kind: Detailed})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := Run(app, gpu, Options{Kind: Detailed, LatencyScale: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Cycles <= base.Cycles {
		t.Errorf("scaled run %d cycles not above base %d", scaled.Cycles, base.Cycles)
	}
}

func TestExtraKernelOverhead(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "GRU", 0.1)
	base, err := Run(app, gpu, Options{Kind: Basic})
	if err != nil {
		t.Fatal(err)
	}
	withOv, err := Run(app, gpu, Options{Kind: Basic, ExtraKernelOverhead: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	wantExtra := uint64(len(app.Kernels)) * 10_000
	got := withOv.Cycles - base.Cycles
	if got != wantExtra {
		t.Errorf("overhead delta = %d, want %d", got, wantExtra)
	}
}

func TestKindString(t *testing.T) {
	if Detailed.String() != "Detailed" || Basic.String() != "Swift-Sim-Basic" ||
		Memory.String() != "Swift-Sim-Memory" {
		t.Error("Kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind must stringify")
	}
}

func TestSchedulerPolicyExploration(t *testing.T) {
	// The paper's §III-D scenario: exploring a new warp scheduler with
	// everything else analytical. All policies must complete and give
	// plausible (nonzero, same-work) results on Swift-Sim-Memory.
	gpu := smallGPU()
	app := mustApp(t, "BACKPROP", 0.15)
	want := uint64(app.Insts())
	cycles := map[config.SchedPolicy]uint64{}
	for _, pol := range []config.SchedPolicy{config.GTO, config.LRR, config.OldestFirst} {
		g := gpu
		g.SM.Scheduler = pol
		res, err := Run(app, g, Options{Kind: Memory})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.Instructions != want {
			t.Errorf("%v: issued %d, want %d", pol, res.Instructions, want)
		}
		cycles[pol] = res.Cycles
	}
	t.Logf("scheduler exploration cycles: %v", cycles)
}

func TestNoCTopologyExploration(t *testing.T) {
	// Swapping the interconnect module (crossbar vs ring) is a one-key
	// configuration change; both topologies complete all work, and the
	// ring's longer hop paths cost cycles on NoC-heavy workloads.
	app := mustApp(t, "SM", 0.15)
	xbar := smallGPU()
	ring := smallGPU()
	ring.NoCTopology = "ring"
	rx, err := Run(app, xbar, Options{Kind: Detailed})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(app, ring, Options{Kind: Detailed})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Instructions != rx.Instructions {
		t.Errorf("instruction counts differ: ring %d vs crossbar %d", rr.Instructions, rx.Instructions)
	}
	// The topologies trade fixed traversal (crossbar) against
	// distance-dependent hops (ring): timing must differ, in either
	// direction (small rings beat a 12-cycle crossbar; large ones lose).
	if rr.Cycles == rx.Cycles {
		t.Errorf("ring and crossbar predict identical cycles (%d); topology had no effect", rr.Cycles)
	}
	if rr.Metrics["noc.hops"] == 0 {
		t.Error("ring recorded no hop traffic")
	}
}

func TestBadTopologyRejected(t *testing.T) {
	gpu := smallGPU()
	gpu.NoCTopology = "torus"
	app := mustApp(t, "WC", 0.1)
	if _, err := Run(app, gpu, Options{Kind: Detailed}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestKernelCyclesSumToTotal(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "GRU", 0.15)
	res, err := Run(app, gpu, Options{Kind: Memory, ExtraKernelOverhead: 100})
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, kc := range res.KernelCycles {
		sum += kc
	}
	want := sum + uint64(len(app.Kernels))*100
	if res.Cycles != want {
		t.Errorf("Cycles = %d, want kernel sum + overhead = %d", res.Cycles, want)
	}
}

func TestMaxCyclesMaxUint64DoesNotWrap(t *testing.T) {
	// Regression: eng.Cycle()+MaxCycles wrapped for kernels after the
	// first, turning an "unlimited" budget into an instant timeout.
	gpu := smallGPU()
	app := mustApp(t, "GRU", 0.1) // multi-kernel: cycle > 0 at kernel 2
	if len(app.Kernels) < 2 {
		t.Fatal("need a multi-kernel app for the wrap case")
	}
	res, err := Run(app, gpu, Options{Kind: Basic, MaxCycles: math.MaxUint64})
	if err != nil {
		t.Fatalf("MaxCycles=MaxUint64 run failed: %v", err)
	}
	if res.Cycles == 0 {
		t.Error("zero cycles")
	}
}

func TestUnschedulableKernelRejectedAtAssembly(t *testing.T) {
	// A kernel whose single-block register footprint exceeds the SM's
	// register file can never be scheduled. This used to surface as an
	// engine deadlock (or warp-slot panic) deep inside the run; it must
	// now be a clear validation error before simulation starts.
	gpu := smallGPU()
	// Generated traces are memoized and shared; clone before mutating.
	shared := mustApp(t, "BFS", 0.1)
	bad := *shared.Kernels[0]
	bad.RegsPerThread = gpu.SM.Registers // one thread busts the file
	app := &trace.App{Name: shared.Name, Suite: shared.Suite, Kernels: []*trace.Kernel{&bad}}
	_, err := Run(app, gpu, Options{Kind: Basic})
	if err == nil {
		t.Fatal("unschedulable kernel accepted")
	}
	if !strings.Contains(err.Error(), "can never be scheduled") {
		t.Errorf("error does not identify unschedulability: %v", err)
	}
	if !strings.Contains(err.Error(), app.Kernels[0].Name) {
		t.Errorf("error does not identify the kernel: %v", err)
	}
}

func TestRunCtxPreCanceled(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "BFS", 0.1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, app, gpu, Options{Kind: Basic})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if !errors.Is(err, engine.ErrCanceled) {
		t.Errorf("err = %v, want engine.ErrCanceled in chain", err)
	}
}

func TestRunCtxDeadline(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "SM", 0.3)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunCtx(ctx, app, gpu, Options{Kind: Detailed})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; engine context polling is broken", elapsed)
	}
}

func TestL2HybridConfiguration(t *testing.T) {
	// The fourth hybridization point: cycle-accurate L1 over an
	// analytical below-L1 backend. It must complete all work, sit
	// between Basic and Memory in hybridization, and predict cycles in
	// the same band.
	gpu := smallGPU()
	app := mustApp(t, "SM", 0.15)
	basic, err := Run(app, gpu, Options{Kind: Basic})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Run(app, gpu, Options{Kind: L2Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Instructions != basic.Instructions {
		t.Errorf("instructions %d vs %d", hyb.Instructions, basic.Instructions)
	}
	ratio := float64(hyb.Cycles) / float64(basic.Cycles)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("L2Hybrid %d cycles vs Basic %d (ratio %.2f)", hyb.Cycles, basic.Cycles, ratio)
	}
	// Its inventory has analytical modules (the backend + ALUs) and
	// cycle-accurate L1s.
	an, l1 := 0, 0
	for _, m := range hyb.Inventory {
		if m.Kind == engine.Analytical {
			an++
		}
		if m.Name == "l1" {
			l1++
		}
	}
	if an == 0 || l1 != gpu.NumSMs {
		t.Errorf("inventory: %d analytical, %d l1 modules (want >0, %d)", an, l1, gpu.NumSMs)
	}
	if hyb.Kind.String() != "Swift-Sim-L2" {
		t.Errorf("Kind = %q", hyb.Kind.String())
	}
	// L2 backend counters flow into the metrics.
	if hyb.Metrics["membackend.l2_hit"]+hyb.Metrics["membackend.l2_miss"] == 0 {
		t.Error("backend saw no traffic")
	}
}

// boundaryPusher is a segment module that stays busy for work cycles and
// pushes one message into its boundary port at local cycle at.
type boundaryPusher struct {
	port mem.Port
	at   uint64
	work int
}

func (p *boundaryPusher) Name() string           { return "pusher" }
func (p *boundaryPusher) Kind() engine.ModelKind { return engine.CycleAccurate }
func (p *boundaryPusher) Busy() bool             { return p.work > 0 }
func (p *boundaryPusher) SetWake(func())         {}
func (p *boundaryPusher) Tick(cycle uint64) {
	p.work--
	if cycle == p.at {
		p.port.Accept(&mem.Request{Addr: cycle})
	}
}

// cycleSink records the engine cycle of every delivery.
type cycleSink struct {
	eng *engine.Engine
	at  []uint64
}

func (s *cycleSink) Accept(*mem.Request) bool {
	s.at = append(s.at, s.eng.Cycle())
	return true
}

// TestEpochBoundaryWakeAware pins the boundary's active-set contract: the
// first message of an epoch wakes it at the fold, so a message captured
// at the epoch's first cycle T is delivered in that epoch's tail at T (and
// one captured at T+2 in the catch-up cycle T+2, never early); with no
// traffic parked the boundary is not in the active set at all.
func TestEpochBoundaryWakeAware(t *testing.T) {
	eng := engine.New()
	eng.SetParallel(2)
	eng.SetEpoch(4)
	sink := &cycleSink{eng: eng}
	b := newEpochBoundary("epochq", sink, metrics.New())
	// Epochs are [0,3], [4,7], [8,11], ...: 8 opens one, 10 is mid-epoch.
	pushers := []*boundaryPusher{{at: 8, work: 16}, {at: 10, work: 16}}
	for s, p := range pushers {
		p.port = b.port(s, eng.ShardContext(s))
		eng.RegisterSharded(p, s)
	}
	eng.Register(b)

	idleActive, parkedActive := -1, -1
	eng.Schedule(5, func() { idleActive = eng.ActiveTickers() })
	eng.Schedule(9, func() { parkedActive = eng.ActiveTickers() })
	done := false
	eng.Schedule(40, func() { done = true })
	if _, err := eng.Run(func() bool { return done }, 0); err != nil {
		t.Fatal(err)
	}
	if len(sink.at) != 2 || sink.at[0] != 8 || sink.at[1] != 10 {
		t.Errorf("deliveries at cycles %v, want [8 10]", sink.at)
	}
	if idleActive != len(pushers) {
		t.Errorf("active set with an empty boundary = %d, want only the %d pushers", idleActive, len(pushers))
	}
	if parkedActive != len(pushers)+1 {
		t.Errorf("active set with a parked message = %d, want the pushers and the boundary", parkedActive)
	}
	if b.Busy() || eng.ActiveTickers() != 0 {
		t.Errorf("after the run: boundary busy=%v, %d tickers active; want idle and empty", b.Busy(), eng.ActiveTickers())
	}
}

// TestRunAllocationsDoNotDependOnTheCollector: a run's memory requests come
// from a pool the run holds alone and that outlives collections, so a warm
// Basic run allocates the same whether or not the collector ran
// since the run before it. With the requests in a sync.Pool the collected
// case re-allocated every request (2.4 times the count here) and the benchmark's
// allocs_per_kinst on basic_sharded differed by 4% between identical
// passes.
func TestRunAllocationsDoNotDependOnTheCollector(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	gpu := smallGPU()
	app := mustApp(t, "BFS", 0.25)
	opts := Options{Kind: Basic}
	run := func() {
		if _, err := Run(app, gpu, opts); err != nil {
			t.Fatal(err)
		}
	}
	mallocs := func(collect bool) uint64 {
		if collect {
			runtime.GC()
			runtime.GC()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	run()
	quiet, collected := mallocs(false), mallocs(true)
	t.Logf("%d allocations, %d after two collections", quiet, collected)
	if diff := max(quiet, collected) - min(quiet, collected); diff*100 > quiet {
		t.Errorf("a warm run allocated %d objects, and %d after two collections: over 1%% apart", quiet, collected)
	}
}

// TestConcurrentRunsHoldDistinctPools: a pool from mem.AcquirePool takes no
// lock because one run holds it, on one goroutine, from acquire to release.
// Eight runs are made to hold their pools at the same moment, then they and
// eight more simulate side by side; no pool other than the shared one may
// have two holders at once. Under -race (make tier1) the same runs would
// also report any two of them touching one free list.
func TestConcurrentRunsHoldDistinctPools(t *testing.T) {
	const workers, runsEach = 8, 2
	gpu := smallGPU()
	app := mustApp(t, "BFS", 0.25)

	var holders [256]atomic.Int32
	var shared, clashes atomic.Int32
	var together sync.WaitGroup // the first run of every worker, all holding
	together.Add(workers)
	var arrivals atomic.Int32
	poolHeld = func(p mem.Pool) func() {
		if p == mem.SharedPool {
			shared.Add(1)
		} else if holders[p].Add(1) != 1 {
			clashes.Add(1)
		}
		if arrivals.Add(1) <= workers {
			together.Done()
			together.Wait()
		}
		return func() {
			if p != mem.SharedPool {
				holders[p].Add(-1)
			}
		}
	}
	defer func() { poolHeld = nil }()

	var wg sync.WaitGroup
	errs := make(chan error, workers*runsEach)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runsEach; i++ {
				if _, err := Run(app, gpu, Options{Kind: Basic}); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := clashes.Load(); n != 0 {
		t.Errorf("%d times a run acquired a pool another run was holding", n)
	}
	if n := shared.Load(); n != 0 {
		t.Errorf("%d of %d runs fell back to the shared pool with only %d at once", n, workers*runsEach, workers)
	}
}
