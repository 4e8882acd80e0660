// Package sim assembles complete GPU performance simulators out of the
// Swift-Sim modules, reproducing the three configurations the paper
// evaluates:
//
//   - Detailed: the fully cycle-accurate baseline in the Accel-Sim class —
//     cycle-accurate warp scheduling, ALU pipelines, LD/ST units, sectored
//     L1/L2 caches with MSHRs, a crossbar NoC, and partitioned DRAM, all
//     ticked every cycle.
//   - Swift-Sim-Basic: the ALU pipelines are replaced by the analytical
//     model of §III-D1; the memory hierarchy stays cycle-accurate.
//   - Swift-Sim-Memory: Basic, plus the entire memory path (LD/ST unit,
//     L1, NoC, L2, DRAM) replaced by the Eq. 1 analytical model of
//     §III-D2 driven by reuse-distance/cache-simulation hit rates.
//
// Every configuration shares the identical Block Scheduler and Warp
// Scheduler & Dispatch modules, demonstrating the paper's claim that
// modules behind fixed interfaces can be swapped freely.
package sim

import (
	"context"
	"fmt"
	"math"
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
	kernelIndex int
}

// Run simulates app on gpu under opts and returns the result.
func Run(app *trace.App, gpu config.GPU, opts Options) (*Result, error) {
	return RunCtx(context.Background(), app, gpu, opts)
}

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
	if opts.Kind == Memory {
		// Hit-rate extraction is part of Swift-Sim-Memory's cost; it is
		// memoized across runs of the same trace and geometry.
		pStart := time.Now()
		prof = profileCached(app, gpu, opts.HitRates)
		profileWall = time.Since(pStart)
	}

	// The run's memory requests recycle through a pool it holds alone, on
	// this goroutine, from here to the return: mem.Pool takes no lock on it.
	reqs := mem.AcquirePool()
	defer reqs.Release()
	if poolHeld != nil {
		defer poolHeld(reqs)()
	}
	a, err := assemble(gpu, opts, prof, reqs)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", app.Name, err)
	}
	if smp != nil {
		smp.install(a)
	}
	maxCycles := opts.MaxCycles

	tr := opts.Trace
	var ktid int32
	if tr.Enabled(obs.KernelLevel) {
		tr.NameProcess(app.Name)
		ktid = tr.RegisterTrack("kernels")
	}

	var overhead, extrapolated uint64
	kernelCycles := make([]uint64, 0, len(app.Kernels))
	firstKernel := 0
	if opts.RestoreFrom != nil {
		st, err := readSnapshot(a, app, gpu, opts)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: restore: %w", app.Name, err)
		}
		firstKernel = st.nextKernel
		kernelCycles = append(kernelCycles, st.kernelCycles...)
		extrapolated = st.extrapolated
		overhead = st.overhead
	}
	snapshotPending := opts.SnapshotTo != nil
	for ki := firstKernel; ki < len(app.Kernels); ki++ {
		k := app.Kernels[ki]
		if snapshotPending && a.eng.Cycle() >= opts.SnapshotAt {
			taken, err := writeSnapshot(a, app, gpu, opts, ki, kernelCycles, extrapolated, overhead)
			if err != nil {
				return nil, fmt.Errorf("sim: %s: snapshot: %w", app.Name, err)
			}
			snapshotPending = !taken
		}
		a.kernelIndex = ki
		if smp != nil {
			if kc, ok := smp.tryReplay(ctx, a, ki, maxCycles); ok {
				// Memoized launch: time advanced analytically, counters
				// gained the recorded delta, nothing was simulated.
				kernelCycles = append(kernelCycles, kc)
				extrapolated += kc
				overhead += opts.ExtraKernelOverhead
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
		// The per-kernel budget is relative to the current cycle; clamp
		// the absolute limit so MaxCycles near math.MaxUint64 cannot wrap
		// into the past and turn the budget into an instant timeout.
		limit := kStart + maxCycles
		if limit < kStart {
			limit = math.MaxUint64
		}
		if _, err := a.eng.RunCtx(ctx, a.bs.KernelDone, limit); err != nil {
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
		overhead += opts.ExtraKernelOverhead
		if tr.Enabled(obs.KernelLevel) {
			tr.Emit(obs.Event{Name: k.Name, Cat: "kernel", Ph: obs.PhaseSpan,
				Ts: kStart, Dur: a.eng.Cycle() - kStart, Tid: ktid,
				Arg1Name: "blocks", Arg1: uint64(len(k.Blocks)),
				Arg2Name: "index", Arg2: uint64(ki)})
		}
	}
	if snapshotPending {
		// Final boundary: the end of the run. Covers SnapshotAt values in
		// the last kernel and earlier boundaries skipped as non-quiescent.
		if a.eng.Cycle() < opts.SnapshotAt {
			return nil, fmt.Errorf("sim: %s: snapshot at cycle %d never taken: the run ended at cycle %d",
				app.Name, opts.SnapshotAt, a.eng.Cycle())
		}
		taken, err := writeSnapshot(a, app, gpu, opts, len(app.Kernels), kernelCycles, extrapolated, overhead)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: snapshot: %w", app.Name, err)
		}
		if !taken {
			return nil, fmt.Errorf("sim: %s: no quiescent kernel boundary at or after cycle %d to snapshot",
				app.Name, opts.SnapshotAt)
		}
	}
	if tr.Enabled(obs.ModuleLevel) {
		for _, sm := range a.sms {
			sm.FlushTrace(a.eng.Cycle())
		}
	}

	total := extrapolated + overhead
	a.g.Set("gpu.cycles", total)
	return &Result{
		App:           app.Name,
		GPUName:       gpu.Name,
		Kind:          opts.Kind,
		Cycles:        total,
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

// poolHeld, when a test sets it, is told which request pool a run holds and
// returns what to call just before the run releases it.
var poolHeld func(p mem.Pool) (released func())

// scaleLat applies the golden model's latency scale.
func scaleLat(l int, scale float64) int {
	if scale <= 0 {
		return l
	}
	v := int(float64(l) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// assemble wires one simulator instance per opts.Kind. Unsatisfiable unit
// or warp-slot configurations are reported as errors here, at assembly
// time, rather than as panics mid-simulation. reqs is the pool the LD/ST
// units draw memory requests from.
func assemble(gpu config.GPU, opts Options, prof *reuse.Profile, reqs mem.Pool) (*gpuAssembly, error) {
	eng := engine.New()
	g := metrics.New()
	a := &gpuAssembly{eng: eng, g: g}
	eng.SetTracer(opts.Trace)
	traceModule := opts.Trace.Enabled(obs.ModuleLevel)

	// SMs (with their private L1s and units) form the engine's epoch-local
	// segment, which a relaxed run (EpochCycles > 1) ticks several cycles at
	// a stretch; the shared modules (block scheduler, NoC, L2, DRAM) stay
	// serial around it. Segment modules reach the engine through ctx. An
	// epoch boundary (boundary.go) then carries each L1's downstream
	// traffic, because its PreTick drains run inside the segment's pass.
	epochK := opts.Effective().EpochCycles
	eng.SetEpoch(epochK)
	ctx := eng.ShardContext(0)

	scale := opts.LatencyScale
	smCfg := gpu.SM
	if scale > 0 {
		smCfg.IntLatency = scaleLat(smCfg.IntLatency, scale)
		smCfg.SPLatency = scaleLat(smCfg.SPLatency, scale)
		smCfg.DPLatency = scaleLat(smCfg.DPLatency, scale)
		smCfg.SFULatency = scaleLat(smCfg.SFULatency, scale)
		smCfg.SharedMemLatency = scaleLat(smCfg.SharedMemLatency, scale)
	}

	// Memory hierarchy (all configurations except Memory, which models
	// the entire path analytically): one L1 per SM in front of either the
	// cycle-accurate NoC/L2/DRAM or the analytical Backend. buildL1s makes
	// the L1s (with the epoch boundary and the L1 probe) over whichever
	// downstream port the configuration has, and returns their deferred
	// registration: SMs are built below and registered first, so issue
	// happens before same-cycle memory processing, and the segment's entries
	// (SMs, then L1s) form a contiguous registration range with the shared
	// modules serial after it.
	var l1For func(smID int) mem.Port
	buildL1s := func(down mem.Port) (register func()) {
		l1cfg := gpu.L1
		l1cfg.HitLatency = scaleLat(l1cfg.HitLatency, scale)
		var boundary *epochBoundary
		if epochK > 1 {
			boundary = newEpochBoundary("epochq", down, g)
		}
		l1s := make([]*cache.Timed, gpu.NumSMs)
		for i := range l1s {
			l1down := down
			if boundary != nil {
				l1down = boundary.port(i, ctx)
			}
			l1s[i] = cache.NewTimed("l1", l1cfg, mem.LevelL1, ctx, l1down, g)
			l1s[i].SetTracer(opts.Trace)
		}
		a.l1s = l1s
		l1For = func(smID int) mem.Port { return l1s[smID] }
		if traceModule {
			l1w := metrics.NewWindow(g.Counter("l1.hit"), g.Counter("l1.miss"))
			eng.AddProbe("l1_hit_permille", l1w.DeltaPermille)
		}
		return func() {
			for _, l1 := range l1s {
				eng.RegisterSharded(l1, 0)
			}
			// The boundary ticks after the L1s and before the NoC, so
			// released traffic enters the interconnect the same cycle an
			// exact run's L1 drain would have delivered it.
			if boundary != nil {
				eng.Register(boundary)
			}
		}
	}
	if opts.Kind == L2Hybrid {
		backend := analytic.NewBackend("membackend", eng, gpu, g)
		eng.AddModule(backend)
		defer buildL1s(backend)()
	} else if opts.Kind != Memory {
		l2cfg := gpu.L2
		l2cfg.HitLatency = scaleLat(l2cfg.HitLatency, scale)
		dramLat := scaleLat(gpu.DRAMLatency, scale)

		targets := make([]mem.Port, gpu.MemPartitions)
		var l2s []*cache.Timed
		var drams []*dram.Partition
		for p := 0; p < gpu.MemPartitions; p++ {
			dp := dram.New("dram", eng, gpu.DRAMBanksPerPartition, dramLat, gpu.DRAMRowHitLatency, g)
			l2 := cache.NewTimed("l2", l2cfg, mem.LevelL2, eng, dp, g)
			dp.SetTracer(opts.Trace)
			l2.SetTracer(opts.Trace)
			drams = append(drams, dp)
			l2s = append(l2s, l2)
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
		var interconnect interface {
			mem.Port
			engine.Ticker
			SetTracer(*obs.Tracer)
			Occupancy() int
		}
		if gpu.NoCTopology == "ring" {
			// NoCLatency is the crossbar's end-to-end traversal; a
			// ring pays per hop, so the per-hop cost is derived from
			// it (≈2 cycles per hop for the default 12).
			hop := scaleLat(gpu.NoCLatency, scale) / 6
			if hop < 1 {
				hop = 1
			}
			interconnect = noc.NewRing("noc", eng, gpu.NumSMs, targets, mapAddr,
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
			interconnect = noc.NewCrossbar("noc", eng, targets, mapAddr,
				uint64(scaleLat(gpu.NoCLatency, scale)), flitsPerSector, g)
		}

		interconnect.SetTracer(opts.Trace)

		registerL1s := buildL1s(interconnect)

		if traceModule {
			l2w := metrics.NewWindow(g.Counter("l2.hit"), g.Counter("l2.miss"))
			eng.AddProbe("l2_hit_permille", l2w.DeltaPermille)
			eng.AddProbe("noc_occupancy", func() uint64 { return uint64(interconnect.Occupancy()) })
			eng.AddProbe("dram_queue", func() uint64 {
				n := 0
				for _, dp := range drams {
					n += dp.QueueDepth()
				}
				return uint64(n)
			})
		}

		defer func() {
			registerL1s()
			eng.Register(interconnect)
			for _, l2 := range l2s {
				eng.Register(l2)
			}
			for _, dp := range drams {
				eng.Register(dp)
			}
		}()
	}

	// Execution units per configuration.
	var units smcore.UnitSet
	switch opts.Kind {
	case Detailed, Basic, L2Hybrid:
		units = smcore.NewCycleAccurateUnits(smCfg, ctx, g, gpu.L1.SectorBytes, l1For)
		ldst := units.LDST
		units.LDST = func(smID, sub int) smcore.Unit {
			u := ldst(smID, sub)
			u.(*smcore.LDSTUnit).SetRequestPool(reqs)
			return u
		}
		if opts.Kind != Detailed {
			// The hybrids drop the front end and model the ALUs analytically.
			units.ALU = analyticalALUs(smCfg, gpu.NumSMs, eng, ctx, g)
			units.ICache, units.ModelFrontEnd = nil, false
		}
	case Memory:
		// Eq. 1's level latencies are end-to-end from the core: an L2
		// hit pays the L1 lookup, the NoC round trip and the L2 access;
		// a DRAM access additionally pays the DRAM latency. The DRAM
		// channel meter is rated from the detailed model's bank
		// occupancy (≈16 cycles per sector across banks×partitions);
		// each SM also has an L1-port meter at the banked L1's rate.
		l1Hit := scaleLat(gpu.L1.HitLatency, scale)
		l2End := l1Hit + 2*scaleLat(gpu.NoCLatency, scale) + scaleLat(gpu.L2.HitLatency, scale)
		dramEnd := l2End + scaleLat(gpu.DRAMLatency, scale)
		dramRate := 24.0 / float64(gpu.DRAMBanksPerPartition*gpu.MemPartitions)
		meter := analytic.NewBandwidthMeterRate(dramRate)
		nocMeter := analytic.NewBandwidthMeterRate(1 / float64(gpu.MemPartitions))
		l1Meters := make(map[int]*analytic.BandwidthMeter)
		params := analytic.MemModelParams{
			Profile:          prof,
			KernelIndex:      &a.kernelIndex,
			L1Latency:        l1Hit,
			L2Latency:        l2End,
			DRAMLatency:      dramEnd,
			SharedMemLatency: smCfg.SharedMemLatency,
			SectorBytes:      gpu.L1.SectorBytes,
			Lanes:            smCfg.LDSTLanes,
			DRAM:             meter,
			NoC:              nocMeter,
			DivergeCost:      20,
		}
		mshrMeters := make(map[int]*analytic.BandwidthMeter)
		var first *analytic.MemModel // the rest are its siblings
		var spare []analytic.MemModel
		units = smcore.UnitSet{
			ALU: analyticalALUs(smCfg, gpu.NumSMs, eng, eng, g),
			LDST: func(smID, sub int) smcore.Unit {
				l1Port, ok := l1Meters[smID]
				if !ok {
					l1Port = analytic.NewBandwidthMeterRate(1 / float64(gpu.L1.Banks*gpu.L1.Throughput))
					l1Meters[smID] = l1Port
				}
				mshr, ok := mshrMeters[smID]
				if !ok {
					mshr = analytic.NewBandwidthMeterRate(1)
					mshrMeters[smID] = mshr
				}
				var u *analytic.MemModel
				if first == nil {
					p := params
					p.L1Port, p.MSHR, p.MSHREntries = l1Port, mshr, gpu.L1.MSHREntries
					u = analytic.NewMemModel("mem", eng, p, g)
					first = u
				} else {
					if len(spare) == 0 {
						spare = first.Siblings(max(gpu.NumSMs*smCfg.SubCores-1, 1))
					}
					u, spare = &spare[0], spare[1:]
					u.SetSMMeters(l1Port, mshr)
				}
				eng.AddModule(u)
				return u
			},
		}
	}

	units.Scheduler = opts.Scheduler

	// SMs and the Block Scheduler.
	sms := make([]*smcore.SM, gpu.NumSMs)
	var bs *smcore.BlockScheduler
	onBlockDone := func(sm *smcore.SM) { bs.BlockDone(sm) }
	for i := range sms {
		sm, err := smcore.NewSM(i, smCfg, ctx, units, g, onBlockDone)
		if err != nil {
			return nil, err
		}
		sm.SetTracer(opts.Trace)
		sms[i] = sm
	}
	a.sms = sms
	if traceModule {
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
	bs = smcore.NewBlockScheduler(sms, g)
	a.bs = bs
	eng.Register(bs)
	for _, sm := range sms {
		eng.RegisterSharded(sm, 0)
	}
	return a, nil
}

// analyticalALUs returns the ALU provider of the hybrid configurations:
// one ALUModel per sub-core per class, with DP shared per sub-core pair
// when the configuration is "DP:0.5x" — identical structure to the
// cycle-accurate provider, different modeling. ctx is the engine context
// the models schedule completions through (the segment's, for units inside
// an SM); eng is only used for the module inventory. The first unit
// of a class resolves the class's counters; the others are its siblings,
// built in one slice sized for the numSMs SMs the provider will be asked
// about.
func analyticalALUs(cfg config.SM, numSMs int, eng *engine.Engine, ctx engine.Context, g *metrics.Gatherer) func(smID, sub int, class trace.OpClass) smcore.Unit {
	type dpKey struct{ sm, pair int }
	sharedDP := make(map[dpKey]*analytic.ALUModel)
	var first [4]*analytic.ALUModel // indexed by trace.OpInt..trace.OpSFU
	var spare [4][]analytic.ALUModel
	mk := func(class trace.OpClass, lat, lanes int) *analytic.ALUModel {
		u := first[class]
		if u == nil {
			u = analytic.NewALUModel("alu."+class.String(), ctx, lat, cfg.IssueInterval(lanes), g)
			first[class] = u
		} else {
			if len(spare[class]) == 0 {
				perSM := cfg.SubCores
				if class == trace.OpDP && cfg.DPLanesHalf {
					perSM = (cfg.SubCores + 1) / 2
				}
				spare[class] = u.Siblings(max(numSMs*perSM-1, 1))
			}
			u, spare[class] = &spare[class][0], spare[class][1:]
		}
		eng.AddModule(u)
		return u
	}
	return func(smID, sub int, class trace.OpClass) smcore.Unit {
		switch class {
		case trace.OpInt:
			return mk(class, cfg.IntLatency, cfg.IntLanes)
		case trace.OpSP:
			return mk(class, cfg.SPLatency, cfg.SPLanes)
		case trace.OpSFU:
			return mk(class, cfg.SFULatency, cfg.SFULanes)
		default: // OpDP
			if !cfg.DPLanesHalf {
				return mk(trace.OpDP, cfg.DPLatency, cfg.DPLanes)
			}
			key := dpKey{smID, sub / 2}
			if u, ok := sharedDP[key]; ok {
				return u
			}
			u := mk(trace.OpDP, cfg.DPLatency, cfg.DPLanes)
			sharedDP[key] = u
			return u
		}
	}
}
