package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
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

// resultBytes renders everything of a result but its wall times, for
// comparing two runs.
func resultBytes(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s %d %d %d %d %t %v\n", res.App, res.GPUName, res.Kind, res.Cycles,
		res.Instructions, res.TickedCycles, res.SkippedCycles, res.Sampled, res.KernelCycles)
	_ = metrics.WriteCanonical(&b, res.Metrics)
	return b.String()
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

// positionNames and modelNames render a layout's positions and models in
// failure messages.
var (
	positionNames = [4]string{"front end", "ALUs", "LD/ST with L1", "below L1"}
	modelNames    = [...]string{absent: "absent", analytical: "analytical", cycleAccurate: "cycle-accurate"}
)

// checkLayout reads back from an assembly of kind k the model each module
// position got, and fails unless it is the one k's row of kinds gives it.
// Engine modules show their position by inventory name and their model by
// ModelKind. The units an SM holds inside it are not engine modules, so
// they show by the counters their class registers: "icache." (the front
// end), "oc." (the cycle-accurate ALUs' operand collectors) and "ldst."
// (the cycle-accurate LD/ST unit). A position built of two models fails
// too.
func checkLayout(a *gpuAssembly, k Kind) error {
	var got [4]model
	var errs []error
	show := func(part string, pos int, m model) {
		if got[pos] != absent && got[pos] != m {
			errs = append(errs, fmt.Errorf("%v: %s %s is %s, another part of it %s",
				k, positionNames[pos], part, modelNames[m], modelNames[got[pos]]))
		}
		got[pos] = m
	}
	for _, mi := range a.eng.Inventory() {
		m := analytical
		if mi.Kind == engine.CycleAccurate {
			m = cycleAccurate
		}
		switch mi.Name {
		case "alu.INT", "alu.SP", "alu.DP", "alu.SFU":
			show(mi.Name, 1, m)
		case "l1", "mem":
			show(mi.Name, 2, m)
		case "noc", "l2", "dram", "membackend":
			show(mi.Name, 3, m)
		}
	}
	for _, c := range a.g.Names() {
		for pos, prefix := range [3]string{"icache.", "oc.", "ldst."} {
			if strings.HasPrefix(c, prefix) {
				show(c, pos, cycleAccurate)
			}
		}
	}
	l := kinds[k].layout
	for pos, want := range [4]model{l.frontEnd, l.alus, l.ldst, l.lower} {
		if got[pos] != want {
			errs = append(errs, fmt.Errorf("%v: %s is %s, its row says %s",
				k, positionNames[pos], modelNames[got[pos]], modelNames[want]))
		}
	}
	return errors.Join(errs...)
}

// TestInventoryReflectsHybridization runs every kind and checks each module
// position against the kind's row, then what the rows must say: only
// Detailed has a front end and no analytical module, only Detailed and
// Basic a cycle-accurate NoC, L2 and DRAM, only L2Hybrid the analytical
// backend, L2Hybrid an L1 per SM, and Memory more analytical modules than
// Basic.
func TestInventoryReflectsHybridization(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "GAUSSIAN", 0.1)
	var asm *gpuAssembly
	ranOn = func(a *gpuAssembly) { asm = a }
	defer func() { ranOn = nil }()
	nAnalytical := map[Kind]int{}
	for k := range kinds {
		kind := Kind(k)
		if _, err := Run(app, gpu, Options{Kind: kind}); err != nil {
			t.Fatal(err)
		}
		if err := checkLayout(asm, kind); err != nil {
			t.Error(err)
		}
		names := map[string]int{}
		for _, m := range asm.eng.Inventory() {
			names[m.Name]++
			if m.Kind == engine.Analytical {
				nAnalytical[kind]++
			}
		}
		if (nAnalytical[kind] > 0) != (kind != Detailed) {
			t.Errorf("%v: %d analytical modules, want some only outside Detailed", kind, nAnalytical[kind])
		}
		icache := slices.ContainsFunc(asm.g.Names(), func(c string) bool { return strings.HasPrefix(c, "icache.") })
		if icache != (kind == Detailed) {
			t.Errorf("%v: instruction cache %v, want one only under Detailed", kind, icache)
		}
		if lower := names["noc"] + names["l2"] + names["dram"]; (lower > 0) != (kind == Detailed || kind == Basic) {
			t.Errorf("%v: %d noc, l2 and dram modules", kind, lower)
		}
		if (names["membackend"] > 0) != (kind == L2Hybrid) {
			t.Errorf("%v: %d membackend modules", kind, names["membackend"])
		}
		if kind == L2Hybrid && names["l1"] != gpu.NumSMs {
			t.Errorf("%v: %d l1 modules, want %d", kind, names["l1"], gpu.NumSMs)
		}
	}
	if nAnalytical[Memory] <= nAnalytical[Basic] {
		t.Errorf("Memory (%d analytical) not more hybridized than Basic (%d)", nAnalytical[Memory], nAnalytical[Basic])
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

// TestRunValidatesAnAppOnce: a run of an app that an earlier run validated
// skips the walk over its instructions, and a failed validation is not
// remembered, so an app fixed after it was refused runs.
func TestRunValidatesAnAppOnce(t *testing.T) {
	gpu := smallGPU()
	app := copyApp(mustApp(t, "LU", 0.1)) // the test's own copy, unvalidated
	name := app.Kernels[0].Name
	for i := 0; i < 2; i++ {
		if _, err := Run(app, gpu, Options{Kind: Memory}); err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		// Validate refuses a kernel with no name, which no simulation
		// reads: a second run that validated the app again refuses it.
		app.Kernels[0].Name = ""
		if app.Kernels[0].Validate() == nil {
			t.Fatal("a kernel with no name validated")
		}
	}
	app.Kernels[0].Name = name
	fixed := &trace.App{Name: "x"}
	if _, err := Run(fixed, gpu, Options{Kind: Memory}); err == nil {
		t.Fatal("an app with no kernels accepted")
	}
	fixed.Kernels = app.Kernels
	if _, err := Run(fixed, gpu, Options{Kind: Memory}); err != nil {
		t.Errorf("the app refused before it had kernels: %v", err)
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

func TestKindString(t *testing.T) {
	if Detailed.String() != "Detailed" || Basic.String() != "Swift-Sim-Basic" ||
		Memory.String() != "Swift-Sim-Memory" || L2Hybrid.String() != "Swift-Sim-L2" {
		t.Error("Kind names wrong")
	}
	// A Kind with no row in kinds renders, normalises and identifies
	// without panicking, and fails Validate.
	for _, k := range []Kind{-1, Kind(len(kinds)), 9} {
		o := Options{Kind: k, EpochCycles: 8}
		if got, want := k.String(), fmt.Sprintf("Kind(%d)", int(k)); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if got := o.Effective().EpochCycles; got != 1 {
			t.Errorf("%v: effective epoch %d, want 1 (no cycle-accurate L1s)", k, got)
		}
		if id := o.Identity(); !strings.Contains(id, fmt.Sprintf("kind=%d ", int(k))) {
			t.Errorf("%v: identity %q", k, id)
		}
		if o.Validate() == nil {
			t.Errorf("%v validated", k)
		}
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
	res, err := Run(app, gpu, Options{Kind: Memory})
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, kc := range res.KernelCycles {
		sum += kc
	}
	if res.Cycles != sum {
		t.Errorf("Cycles = %d, want the kernel sum %d", res.Cycles, sum)
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
	k := shared.Kernels[0]
	bad := &trace.Kernel{Name: k.Name, Grid: k.Grid, Block: k.Block,
		RegsPerThread:     gpu.SM.Registers, // one thread busts the file
		SharedMemPerBlock: k.SharedMemPerBlock, Blocks: k.Blocks, Store: k.Store}
	app := &trace.App{Name: shared.Name, Suite: shared.Suite, Kernels: []*trace.Kernel{bad}}
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
	// analytical below-L1 backend. It must complete all work and predict
	// cycles in the same band as Basic (its inventory is checked in
	// TestInventoryReflectsHybridization).
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

// TestConcurrentRunsAgree: a run shares nothing it writes with another,
// its request store included, so Basic runs side by side each return the
// bytes a run alone does. Under -race (make tier1) two runs touching one
// store or free list would also be reported.
func TestConcurrentRunsAgree(t *testing.T) {
	const runs = 8
	gpu := smallGPU()
	app := mustApp(t, "BFS", 0.25)
	opts := Options{Kind: Basic}
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]string, runs)
	errs := make([]error, runs)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := Run(app, gpu, opts)
			if errs[i] = err; err == nil {
				got[i] = resultBytes(res)
			}
		}()
	}
	close(start)
	wg.Wait()
	serial, err := Run(app, gpu, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != resultBytes(serial) {
			t.Errorf("concurrent run %d differs from the serial one", i)
		}
	}
}
