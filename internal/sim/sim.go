// Package sim assembles complete GPU performance simulators out of the
// Swift-Sim modules. Each Kind is a layout (options.go) that gives every
// module position — front end, ALUs, LD/ST unit with L1, and the hierarchy
// below the L1 — a cycle-accurate model, an analytical one or none, and
// assemble builds exactly that. The four kinds are:
//
//   - Detailed: the fully cycle-accurate baseline in the Accel-Sim class —
//     cycle-accurate warp scheduling, instruction fetch, ALU pipelines,
//     LD/ST units, sectored L1/L2 caches with MSHRs, a crossbar NoC, and
//     partitioned DRAM, all ticked every cycle.
//   - Swift-Sim-Basic: the ALU pipelines are replaced by the analytical
//     model of §III-D1 and the front end is dropped; the memory hierarchy
//     stays cycle-accurate.
//   - Swift-Sim-Memory: Basic, plus the entire memory path (LD/ST unit,
//     L1, NoC, L2, DRAM) replaced by the Eq. 1 analytical model of
//     §III-D2 driven by reuse-distance/cache-simulation hit rates.
//   - Swift-Sim-L2: Basic with the NoC, L2 and DRAM replaced by an
//     analytical backend behind the cycle-accurate L1s.
//
// Every configuration shares the identical Block Scheduler and Warp
// Scheduler & Dispatch modules, demonstrating the paper's claim that
// modules behind fixed interfaces can be swapped freely.
package sim

import (
	"context"
	"fmt"
	"time"

	"swiftsim/internal/analytic"
	"swiftsim/internal/cache"
	"swiftsim/internal/config"
	"swiftsim/internal/dram"
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/noc"
	"swiftsim/internal/obs"
	"swiftsim/internal/reuse"
	"swiftsim/internal/smcore"
	"swiftsim/internal/trace"
)

// Result is the outcome of simulating one application.
type Result struct {
	// App and GPUName identify the run.
	App     string
	GPUName string
	// Kind is the simulator configuration used.
	Kind Kind
	// Cycles is the predicted total execution time in GPU cycles.
	Cycles uint64
	// Wall is the host wall-clock time of the simulation (including
	// hit-rate extraction for Swift-Sim-Memory, as the paper's §IV
	// methodology counts it).
	Wall time.Duration
	// ProfileWall is the portion of Wall spent extracting hit rates for
	// Swift-Sim-Memory (zero for other Kinds, and near-zero when the
	// profile came from the memoization cache). Reports can subtract it
	// from Wall to separate modeling cost from simulation cost.
	ProfileWall time.Duration
	// Instructions is the number of warp instructions issued.
	Instructions uint64
	// KernelCycles records each kernel's (possibly extrapolated)
	// duration, in launch order.
	KernelCycles []uint64
	// Sampled reports a sampled-execution run (Options.Sampling): cycles
	// include analytical extrapolation.
	Sampled bool
	// TickedCycles and SkippedCycles decompose simulated time into
	// cycles evaluated tick-by-tick vs fast-forwarded.
	TickedCycles  uint64
	SkippedCycles uint64
	// Metrics is the final counter snapshot from the Metrics Gatherer.
	Metrics map[string]uint64
	// Inventory lists every module with its modeling kind.
	Inventory []engine.ModuleInfo
}

// gpuAssembly holds one wired simulator instance.
type gpuAssembly struct {
	eng         *engine.Engine
	g           *metrics.Gatherer
	bs          *smcore.BlockScheduler
	l1s         []*cache.Timed
	sms         []*smcore.SM
	reqs        *mem.Store // the LD/ST units' requests; nil when no unit is cycle-accurate
	kernelIndex int
}

// Run simulates app on gpu under opts and returns the result.
func Run(app *trace.App, gpu config.GPU, opts Options) (*Result, error) {
	return RunCtx(context.Background(), app, gpu, opts)
}

// maxKernelCycles bounds the simulated time of one kernel launch: a launch
// still running after a billion cycles fails the run as a deadlock.
const maxKernelCycles = 1_000_000_000

// RunCtx is Run with cooperative cancellation: the context is threaded into
// the simulation engine, which polls it every few thousand scheduler
// iterations. Canceling the context (or passing one with a deadline) stops
// the run promptly with an error wrapping engine.ErrCanceled and ctx.Err().
func RunCtx(ctx context.Context, app *trace.App, gpu config.GPU, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := gpu.Validate(); err != nil {
		return nil, err
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", app.Name, err)
	}
	// Assembly-time schedulability validation: a kernel whose blocks can
	// never become resident used to surface as an engine deadlock (or a
	// warp-slot panic) deep inside the run; reject it up front instead.
	for ki, k := range app.Kernels {
		if err := smcore.ValidateKernel(gpu.SM, k); err != nil {
			return nil, fmt.Errorf("sim: %s kernel %d: %w", app.Name, ki, err)
		}
	}
	opts = opts.Effective()
	start := time.Now()

	// Sampled execution mode (sample.go): representative-block subsets per
	// launch plus launch memoization. The representative app also drives
	// hit-rate profiling, so Swift-Sim-Memory's profiling cost shrinks with
	// the sample too.
	var smp *sampler
	if opts.Sampling.Enabled {
		smp, app = newSampler(app, gpu, opts.Sampling)
	}

	var prof *reuse.Profile
	var profileWall time.Duration
	if opts.Kind.layout().ldst == analytical {
		// Hit-rate extraction is part of Swift-Sim-Memory's cost (Eq. 1
		// reads the rates); it is memoized across runs of the same trace
		// and geometry.
		pStart := time.Now()
		prof = profileCached(app, gpu, opts.HitRates)
		profileWall = time.Since(pStart)
	}

	a, err := assemble(gpu, opts, prof)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", app.Name, err)
	}
	if smp != nil {
		smp.install(a)
	}

	tr := opts.Trace
	var ktid int32
	if tr.Enabled(obs.KernelLevel) {
		tr.NameProcess(app.Name)
		ktid = tr.RegisterTrack("kernels")
	}

	var extrapolated uint64
	kernelCycles := make([]uint64, 0, len(app.Kernels))
	firstKernel := 0
	if opts.RestoreFrom != nil {
		st, err := readSnapshot(a, app, gpu, opts)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: restore: %w", app.Name, err)
		}
		firstKernel = int(st.next)
		kernelCycles = append(kernelCycles, st.kernelCycles...)
		extrapolated = st.extrapolated
	}
	snapshotPending := opts.SnapshotTo != nil
	for ki := firstKernel; ki < len(app.Kernels); ki++ {
		k := app.Kernels[ki]
		if snapshotPending && a.eng.Cycle() >= opts.SnapshotAt {
			if err := writeSnapshot(a, app, gpu, opts, ki, kernelCycles, extrapolated); err != nil {
				return nil, fmt.Errorf("sim: %s: snapshot: %w", app.Name, err)
			}
			snapshotPending = false
		}
		a.kernelIndex = ki
		if smp != nil {
			if kc, ok := smp.tryReplay(ctx, a, ki); ok {
				// Memoized launch: time advanced analytically, counters
				// gained the recorded delta, nothing was simulated.
				kernelCycles = append(kernelCycles, kc)
				extrapolated += kc
				if tr.Enabled(obs.KernelLevel) {
					tr.Emit(obs.Event{Name: k.Name, Cat: "kernel-replay", Ph: obs.PhaseSpan,
						Ts: a.eng.Cycle() - kc, Dur: kc, Tid: ktid,
						Arg1Name: "blocks", Arg1: uint64(len(k.Blocks)),
						Arg2Name: "index", Arg2: uint64(ki)})
				}
				continue
			}
			smp.beginLaunch(a, ki)
		}
		// Kernel-boundary L1 invalidation (non-coherent GPU L1s are
		// flushed between kernels); the L2 persists.
		for _, l1 := range a.l1s {
			l1.Invalidate()
		}
		kStart := a.eng.Cycle()
		a.bs.LaunchKernel(k)
		if _, err := a.eng.RunCtx(ctx, a.bs.KernelDone, kStart+maxKernelCycles); err != nil {
			return nil, fmt.Errorf("sim: %s kernel %d (%s): %w", app.Name, ki, k.Name, err)
		}
		if err := a.bs.Err(); err != nil {
			return nil, fmt.Errorf("sim: %s kernel %d (%s): %w", app.Name, ki, k.Name, err)
		}
		kc := a.eng.Cycle() - kStart
		if smp != nil {
			kc = smp.endLaunch(a, ki, a.eng.Cycle()-kStart)
		}
		kernelCycles = append(kernelCycles, kc)
		extrapolated += kc
		if tr.Enabled(obs.KernelLevel) {
			tr.Emit(obs.Event{Name: k.Name, Cat: "kernel", Ph: obs.PhaseSpan,
				Ts: kStart, Dur: a.eng.Cycle() - kStart, Tid: ktid,
				Arg1Name: "blocks", Arg1: uint64(len(k.Blocks)),
				Arg2Name: "index", Arg2: uint64(ki)})
		}
	}
	if snapshotPending {
		// Final boundary: the end of the run, for a SnapshotAt in the last
		// kernel.
		if a.eng.Cycle() < opts.SnapshotAt {
			return nil, fmt.Errorf("sim: %s: snapshot at cycle %d never taken: the run ended at cycle %d",
				app.Name, opts.SnapshotAt, a.eng.Cycle())
		}
		if err := writeSnapshot(a, app, gpu, opts, len(app.Kernels), kernelCycles, extrapolated); err != nil {
			return nil, fmt.Errorf("sim: %s: snapshot: %w", app.Name, err)
		}
	}
	if tr.Enabled(obs.ModuleLevel) {
		for _, sm := range a.sms {
			sm.FlushTrace(a.eng.Cycle())
		}
	}

	if ranOn != nil {
		ranOn(a)
	}
	a.g.Set("gpu.cycles", extrapolated)
	return &Result{
		App:           app.Name,
		GPUName:       gpu.Name,
		Kind:          opts.Kind,
		Cycles:        extrapolated,
		Wall:          time.Since(start),
		ProfileWall:   profileWall,
		Instructions:  a.g.Value("sm.issued"),
		KernelCycles:  kernelCycles,
		Sampled:       smp != nil,
		TickedCycles:  a.eng.TickedCycles(),
		SkippedCycles: a.eng.SkippedCycles(),
		Metrics:       a.g.Snapshot(),
		Inventory:     a.eng.Inventory(),
	}, nil
}

// ranOn, when a test sets it, is handed the assembly of each run that
// completes, for the host-work counts a Result does not carry.
var ranOn func(a *gpuAssembly)

// assemble wires one simulator instance, building each module position as
// opts.Kind's layout says, bottom up: the hierarchy below the L1s, then the
// LD/ST units with their L1s, the ALUs and the front end. Unsatisfiable unit
// or warp-slot configurations are reported as errors here, at assembly
// time, rather than as panics mid-simulation.
func assemble(gpu config.GPU, opts Options, prof *reuse.Profile) (*gpuAssembly, error) {
	eng := engine.New()
	g := metrics.New()
	a := &gpuAssembly{eng: eng, g: g}
	eng.SetTracer(opts.Trace)
	lay := opts.Kind.layout()

	// SMs (with their private L1s and units) form the engine's epoch-local
	// segment, which a relaxed run (EpochCycles > 1) ticks several cycles at
	// a stretch; the shared modules (block scheduler, NoC, L2, DRAM) stay
	// serial around it. Segment modules reach the engine through ctx. An
	// epoch boundary (boundary.go) then carries each L1's downstream
	// traffic, because its Tick's drain runs inside the segment's pass.
	epochK := opts.Effective().EpochCycles
	eng.SetEpoch(epochK)
	ctx := eng.ShardContext(0)

	// Below the L1s: what an L1 miss goes to.
	var down mem.Port
	var ms *memorySystem
	switch lay.lower {
	case cycleAccurate:
		ms = newMemorySystem(eng, gpu, g, opts.Trace)
		down = ms.noc
	case analytical:
		backend := analytic.NewBackend("membackend", eng, gpu, g)
		eng.AddModule(backend)
		down = backend
	}

	// The cycle-accurate units, for the SM positions that take them (built
	// only then: the providers allocate even unused). The run's memory
	// requests come from a store of its own, made only for cycle-accurate
	// LD/ST units: nothing else starts a request.
	if lay.ldst == cycleAccurate {
		a.reqs = new(mem.Store)
	}
	var ca smcore.UnitSet
	if lay.frontEnd == cycleAccurate || lay.alus == cycleAccurate || lay.ldst == cycleAccurate {
		ca = smcore.CycleAccurateUnits(gpu.NumSMs, gpu.SM, ctx, g, gpu.L1.SectorBytes, func(smID int) mem.Port { return a.l1s[smID] }, a.reqs)
	}
	units := smcore.UnitSet{Scheduler: opts.Scheduler}

	// The LD/ST units: cycle-accurate ones in front of one timed L1 per SM
	// (behind the epoch boundary in a relaxed run), or Eq. 1 models.
	var boundary *epochBoundary
	switch lay.ldst {
	case cycleAccurate:
		if epochK > 1 {
			boundary = newEpochBoundary("epochq", down, g)
		}
		downs := make([]mem.Port, gpu.NumSMs)
		for i := range downs {
			downs[i] = down
			if boundary != nil {
				downs[i] = boundary.port(i, ctx)
			}
		}
		a.l1s = cache.NewTimedCaches(gpu.NumSMs, "l1", gpu.L1, mem.LevelL1, ctx, downs, g)
		for _, l1 := range a.l1s {
			l1.SetTracer(opts.Trace)
		}
		units.LDST = ca.LDST
	case analytical:
		units.LDST = eq1LDST(eng, gpu, prof, &a.kernelIndex, g)
	}

	switch lay.alus {
	case cycleAccurate:
		units.ALU = ca.ALU
	case analytical:
		units.ALU = analyticalALUs(gpu.SM, gpu.NumSMs, eng, ctx, g)
	}
	if lay.frontEnd == cycleAccurate {
		units.ICache = ca.ICache
	}

	// SMs and the Block Scheduler.
	var bs *smcore.BlockScheduler
	onBlockDone := func(sm *smcore.SM) { bs.BlockDone(sm) }
	sms, err := smcore.NewSMs(gpu.NumSMs, gpu.SM, ctx, units, g, onBlockDone)
	if err != nil {
		return nil, err
	}
	for _, sm := range sms {
		sm.SetTracer(opts.Trace)
	}
	a.sms = sms
	bs = smcore.NewBlockScheduler(sms, g)
	a.bs = bs

	// Registration order is tick order: the SMs issue before same-cycle
	// memory processing, and the segment's entries (SMs, then L1s) form a
	// contiguous range with the shared modules serial around it. The
	// boundary ticks after the L1s and before the NoC, so released traffic
	// enters the interconnect the same cycle an exact run's L1 drain would
	// have delivered it.
	eng.Register(bs)
	for _, sm := range sms {
		eng.RegisterSharded(sm, 0)
	}
	for _, l1 := range a.l1s {
		eng.RegisterSharded(l1, 0)
	}
	if boundary != nil {
		eng.Register(boundary)
	}
	if ms != nil {
		eng.Register(ms.noc)
		for _, l2 := range ms.l2s {
			eng.Register(l2)
		}
		for _, dp := range ms.drams {
			eng.Register(dp)
		}
	}

	if opts.Trace.Enabled(obs.ModuleLevel) {
		if a.l1s != nil {
			l1w := metrics.NewWindow(g.Counter("l1.hit"), g.Counter("l1.miss"))
			eng.AddProbe("l1_hit_permille", l1w.DeltaPermille)
		}
		if ms != nil {
			l2w := metrics.NewWindow(g.Counter("l2.hit"), g.Counter("l2.miss"))
			eng.AddProbe("l2_hit_permille", l2w.DeltaPermille)
			eng.AddProbe("noc_occupancy", func() uint64 { return uint64(ms.noc.Occupancy()) })
			eng.AddProbe("dram_queue", func() uint64 {
				n := 0
				for _, dp := range ms.drams {
					n += dp.QueueDepth()
				}
				return uint64(n)
			})
		}
		// "Active" means holding resident blocks — a memory-stalled SM is
		// still occupied. Busy() would report the idle-aware issue state
		// and zero out the timeline during long stalls.
		eng.AddProbe("active_sms", func() uint64 {
			n := 0
			for _, sm := range sms {
				if sm.ResidentBlocks() > 0 {
					n++
				}
			}
			return uint64(n)
		})
	}
	return a, nil
}

// memorySystem is the cycle-accurate hierarchy below the L1s: an
// interconnect in front of one L2 slice and one DRAM partition per memory
// partition.
type memorySystem struct {
	noc interface {
		mem.Port
		engine.Ticker
		SetTracer(*obs.Tracer)
		Occupancy() int
	}
	l2s   []*cache.Timed
	drams []*dram.Partition
}

// newMemorySystem builds gpu's NoC, L2 slices and DRAM partitions.
func newMemorySystem(eng *engine.Engine, gpu config.GPU, g *metrics.Gatherer, tr *obs.Tracer) *memorySystem {
	ms := &memorySystem{}
	ms.drams = dram.NewPartitions(gpu.MemPartitions, "dram", eng, gpu.DRAMBanksPerPartition, gpu.DRAMLatency, gpu.DRAMRowHitLatency, g)
	// targets first holds each L2 slice's DRAM partition, then, for the
	// interconnect, the slices themselves.
	targets := make([]mem.Port, gpu.MemPartitions)
	for p, dp := range ms.drams {
		dp.SetTracer(tr)
		targets[p] = dp
	}
	ms.l2s = cache.NewTimedCaches(gpu.MemPartitions, "l2", gpu.L2, mem.LevelL2, eng, targets, g)
	for p, l2 := range ms.l2s {
		l2.SetTracer(tr)
		targets[p] = l2
	}
	lineBytes := uint64(gpu.L2.LineBytes)
	parts := uint64(gpu.MemPartitions)
	// XOR-hashed slice interleaving, as on real GPUs and Accel-Sim:
	// plain modulo would send power-of-two strides to one partition
	// (partition camping) and serialize the whole memory system.
	mapAddr := func(addr uint64) int {
		line := addr / lineBytes
		line ^= line >> 7
		line ^= line >> 13
		return int(line % parts)
	}
	if gpu.NoCTopology == "ring" {
		// NoCLatency is the crossbar's end-to-end traversal; a
		// ring pays per hop, so the per-hop cost is derived from
		// it (≈2 cycles per hop for the default 12).
		hop := gpu.NoCLatency / 6
		if hop < 1 {
			hop = 1
		}
		ms.noc = noc.NewRing("noc", eng, gpu.NumSMs, targets, mapAddr,
			uint64(hop), 2*gpu.MemPartitions, g)
	} else {
		// Per-destination throughput in sector-sized messages. Custom
		// configs can make the quotient zero (flit narrower than a
		// sector); clamp to 1 so the crossbar still drains. Validate()
		// rejects non-positive NoCFlitBytes, but assemblies built from
		// hand-rolled config.GPU values skip validation.
		flitsPerSector := gpu.NoCFlitBytes / gpu.L1.SectorBytes
		if flitsPerSector < 1 {
			flitsPerSector = 1
		}
		ms.noc = noc.NewCrossbar("noc", eng, targets, mapAddr,
			uint64(gpu.NoCLatency), flitsPerSector, g)
	}
	ms.noc.SetTracer(tr)
	return ms
}

// eq1LDST returns Swift-Sim-Memory's LD/ST provider: one Eq. 1 MemModel
// per sub-core, reading the profile's rates for the kernel at
// *kernelIndex. Eq. 1's level latencies are end-to-end from the core: an
// L2 hit pays the L1 lookup, the NoC round trip and the L2 access; a DRAM
// access additionally pays the DRAM latency. The DRAM channel meter is
// rated from the detailed model's bank occupancy (≈16 cycles per sector
// across banks×partitions); each SM also has an L1-port meter at the
// banked L1's rate and an MSHR meter, shared by its sub-cores. The units
// and the per-SM meters are one class each.
func eq1LDST(eng *engine.Engine, gpu config.GPU, prof *reuse.Profile, kernelIndex *int, g *metrics.Gatherer) func(smID, sub int) smcore.Unit {
	l1Hit := gpu.L1.HitLatency
	l2End := l1Hit + 2*gpu.NoCLatency + gpu.L2.HitLatency
	params := analytic.MemModelParams{
		Profile:          prof,
		KernelIndex:      kernelIndex,
		L1Latency:        l1Hit,
		L2Latency:        l2End,
		DRAMLatency:      l2End + gpu.DRAMLatency,
		SharedMemLatency: gpu.SM.SharedMemLatency,
		SectorBytes:      gpu.L1.SectorBytes,
		Lanes:            gpu.SM.LDSTLanes,
		DRAM:             analytic.NewBandwidthMeterRate(24.0 / float64(gpu.DRAMBanksPerPartition*gpu.MemPartitions)),
		NoC:              analytic.NewBandwidthMeterRate(1 / float64(gpu.MemPartitions)),
		MSHREntries:      gpu.L1.MSHREntries,
		DivergeCost:      20,
	}
	l1Ports := analytic.NewBandwidthMeters(gpu.NumSMs, 1/float64(gpu.L1.Banks*gpu.L1.Throughput))
	mshrs := analytic.NewBandwidthMeters(gpu.NumSMs, 1)
	units := analytic.NewMemModels(gpu.NumSMs*gpu.SM.SubCores, "mem", eng, params, g)
	return func(smID, sub int) smcore.Unit {
		u := &units[smID*gpu.SM.SubCores+sub]
		u.SetSMMeters(&l1Ports[smID], &mshrs[smID])
		eng.AddModule(u)
		return u
	}
}

// analyticalALUs returns the ALU provider of the hybrid configurations:
// smcore.ALUs' layout of units, each an ALUModel. ctx is the engine context
// the models schedule completions through (the segment's, as for every unit
// inside an SM); eng is only used for the module inventory. Each class's
// units come from one slice, sized for one unit per sub-core of the numSMs
// SMs the provider will be asked about.
func analyticalALUs(cfg config.SM, numSMs int, eng *engine.Engine, ctx engine.Context, g *metrics.Gatherer) func(smID, sub int, class trace.OpClass) smcore.Unit {
	var spare [4][]analytic.ALUModel // indexed by trace.OpInt..trace.OpSFU
	return smcore.ALUs(cfg, func(class trace.OpClass, lat, lanes int) smcore.Unit {
		if len(spare[class]) == 0 {
			spare[class] = analytic.NewALUModels(numSMs*cfg.SubCores, "alu."+class.String(), ctx, lat, cfg.IssueInterval(lanes), g)
		}
		u := &spare[class][0]
		spare[class] = spare[class][1:]
		eng.AddModule(u)
		return u
	})
}
