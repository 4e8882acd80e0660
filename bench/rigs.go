package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"swiftsim/internal/analytic"
	"swiftsim/internal/cache"
	"swiftsim/internal/config"
	"swiftsim/internal/dram"
	"swiftsim/internal/engine"
	"swiftsim/internal/hwmodel"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/noc"
	"swiftsim/internal/regress"
	"swiftsim/internal/reuse"
	"swiftsim/internal/runner"
	"swiftsim/internal/sim"
	"swiftsim/internal/smcore"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// The layer rigs: each drives one module through its exported constructor
// and Accept / Tick / TryIssue (or one package through its exported
// functions) and reports host time per unit of that layer's work. They
// run in a child of their own during a traced run and do not depend on
// the workload; -seed draws the address streams. A rig's number says what
// the layer costs in isolation; its share of a workload is the host.*_pct
// row of that workload.

type rigConfig struct {
	Seed   uint64
	OutDir string
}

// rigScale is the trace scale of the rigs that need real traces: the
// golden corpus's, fixed so rig numbers compare across seeds.
const rigScale = 0.25

// rigSweepScale is the scale of the rigs whose subject is the machinery
// around simulations (the runner pool, the service), not the simulations.
const rigSweepScale = 0.1

// rigReps is how often each rig repeats its measurement; the median is
// reported.
const rigReps = 3

type rigs struct {
	cfg  rigConfig
	rng  *rand.Rand
	gpu  config.GPU
	apps []*trace.App
	out  map[string]float64
}

// timeMedian runs fn rigReps times and returns the median duration.
func timeMedian(fn func()) time.Duration {
	ds := make([]time.Duration, rigReps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func runRigs(cfg rigConfig) (map[string]float64, error) {
	r := &rigs{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, 0x7269_6773)),
		gpu: config.RTX2080Ti(),
		out: map[string]float64{},
	}
	// workload.gen_s is the one cold generation this process can do:
	// Generate memoizes.
	t0 := time.Now()
	for _, name := range workload.Names() {
		app, err := workload.Generate(name, rigScale)
		if err != nil {
			return nil, err
		}
		r.apps = append(r.apps, app)
	}
	r.out["workload.gen_s"] = time.Since(t0).Seconds()

	for _, rig := range []func() error{
		r.traceIO, r.reuseProfile, r.functionalCache,
		r.engineSerial, r.engineSharded,
		r.smIssue, r.analyticIssue,
		r.timedCache, r.crossbar, r.dramPartition,
		r.runnerPool, r.snapshot, r.goldenModel,
		r.serviceLayers, r.serviceHTTP, r.leasePlane,
	} {
		if err := rig(); err != nil {
			return nil, err
		}
	}
	return r.out, nil
}

// traceIO: the .sgt round trip of the 20 traces and the content hash of
// the copies read back (fresh pointers, so ContentHash's memo misses).
func (r *rigs) traceIO() error {
	var files [][]byte
	var total int
	write := timeMedian(func() {
		files, total = files[:0], 0
		for _, app := range r.apps {
			var buf bytes.Buffer
			if err := trace.Write(&buf, app); err != nil {
				panic(err) // a bytes.Buffer does not fail
			}
			files = append(files, buf.Bytes())
			total += buf.Len()
		}
	})
	var copies []*trace.App
	var readErr error
	read := timeMedian(func() {
		copies = copies[:0]
		for _, f := range files {
			app, err := trace.Read(bytes.NewReader(f))
			if err != nil {
				readErr = err
				return
			}
			copies = append(copies, app)
		}
	})
	if readErr != nil {
		return fmt.Errorf("trace rig: %w", readErr)
	}
	t0 := time.Now()
	for i, app := range copies {
		if trace.ContentHash(app) != trace.ContentHash(r.apps[i]) {
			return fmt.Errorf("trace rig: %s changed its content hash across the .sgt round trip", app.Name)
		}
	}
	r.out["trace.hash_s"] = time.Since(t0).Seconds()
	r.out["trace.write_mbps"] = float64(total) / 1e6 / write.Seconds()
	r.out["trace.read_mbps"] = float64(total) / 1e6 / read.Seconds()
	return nil
}

// reuseProfile: the hit-rate extraction Swift-Sim-Memory pays per cold
// (app, GPU) cell.
func (r *rigs) reuseProfile() error {
	var accesses uint64
	d := timeMedian(func() {
		accesses = 0
		for _, app := range r.apps {
			accesses += reuse.ProfileApp(app, r.gpu).Accesses
		}
	})
	r.out["reuse.profile_s"] = d.Seconds()
	r.out["reuse.accesses_per_s"] = float64(accesses) / d.Seconds()
	return nil
}

// functionalCache: the timeless sectored cache the profiler runs, on a
// stream that draws half its addresses from a hot set of 256 lines.
func (r *rigs) functionalCache() error {
	addrs := make([]uint64, 1<<20)
	for i := range addrs {
		if r.rng.IntN(2) == 0 {
			addrs[i] = r.rng.Uint64N(256) * 128
		} else {
			addrs[i] = 1<<30 + r.rng.Uint64N(1<<22)*32
		}
	}
	hits := 0
	d := timeMedian(func() {
		f := cache.NewFunctional(r.gpu.L1)
		for _, a := range addrs {
			if f.Access(a, false) {
				hits++
			}
		}
	})
	if hits == 0 {
		return fmt.Errorf("functional cache rig: no hits on a stream with a hot set")
	}
	r.out["cache.functional_access_ns"] = float64(d.Nanoseconds()) / float64(len(addrs))
	return nil
}

// busyTicker is a wake-aware ticker that always has work and does none:
// what remains is the engine's own cost per module-cycle.
type busyTicker struct {
	name  string
	ticks uint64
}

func (t *busyTicker) Name() string           { return t.name }
func (t *busyTicker) Kind() engine.ModelKind { return engine.CycleAccurate }
func (t *busyTicker) Busy() bool             { return true }
func (t *busyTicker) SetWake(func())         {}
func (t *busyTicker) Tick(uint64)            { t.ticks++ }

// runFor runs e until an event scheduled `cycles` ahead fires.
func runFor(e *engine.Engine, cycles uint64) error {
	done := false
	e.Schedule(cycles, func() { done = true })
	_, err := e.Run(func() bool { return done }, 0)
	return err
}

func (r *rigs) engineSerial() error {
	const tickers, cycles = 64, 100000
	var err error
	d := timeMedian(func() {
		e := engine.New()
		for i := 0; i < tickers; i++ {
			e.Register(&busyTicker{name: fmt.Sprintf("t%d", i)})
		}
		if e := runFor(e, cycles); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("engine tick rig: %w", err)
	}
	r.out["engine.tick_ns"] = float64(d.Nanoseconds()) / (tickers * cycles)

	// Schedule + fire with no ticker registered: every event schedules
	// its successor a seeded few cycles ahead and the engine
	// fast-forwards between them.
	const events = 1000000
	delays := make([]uint64, 1024)
	for i := range delays {
		delays[i] = 1 + r.rng.Uint64N(16)
	}
	d = timeMedian(func() {
		e := engine.New()
		fired := 0
		var next func()
		next = func() {
			fired++
			if fired < events {
				e.Schedule(delays[fired%len(delays)], next)
			}
		}
		e.Schedule(1, next)
		if _, e := e.Run(func() bool { return fired >= events }, 0); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("engine event rig: %w", err)
	}
	r.out["engine.event_ns"] = float64(d.Nanoseconds()) / events
	return nil
}

// shardTicker is a permanently busy sharded module that, every few
// ticks, stages a completion event and a cross-shard defer through
// preallocated closures, as an SM does.
type shardTicker struct {
	busyTicker
	ctx   engine.Context
	fills uint64
	fill  func()
	note  func()
}

func (t *shardTicker) Tick(uint64) {
	t.ticks++
	switch t.ticks % 4 {
	case 0:
		t.ctx.Schedule(2, t.fill)
	case 2:
		t.ctx.Defer(t.note)
	}
}

// engineSharded: the cost of one simulated cycle of a 2-shard engine, at
// the exact per-cycle barrier and at 8-cycle epochs. The engine starts
// its shard workers only when GOMAXPROCS > 1; on a one-core host these
// two numbers measure its serial fallback.
func (r *rigs) engineSharded() error {
	const tickers, shards, cycles = 32, 2, 20000
	measure := func(epoch int) (float64, error) {
		var err error
		d := timeMedian(func() {
			e := engine.New()
			e.SetParallel(shards)
			if epoch > 1 {
				e.SetEpoch(epoch)
			}
			head := &busyTicker{name: "collector"}
			e.Register(head)
			var sink uint64
			for i := 0; i < tickers; i++ {
				t := &shardTicker{ctx: e.ShardContext(i % shards)}
				t.name = fmt.Sprintf("sm%d", i)
				t.fill = func() { t.fills++ }
				t.note = func() { sink++ }
				e.RegisterSharded(t, i%shards)
			}
			if e := runFor(e, cycles); e != nil {
				err = e
			}
		})
		return float64(d.Nanoseconds()) / cycles, err
	}
	exact, err := measure(1)
	if err != nil {
		return fmt.Errorf("engine shard rig: %w", err)
	}
	relaxed, err := measure(8)
	if err != nil {
		return fmt.Errorf("engine epoch rig: %w", err)
	}
	r.out["engine.shard_cycle_ns"] = exact
	r.out["engine.epoch8_cycle_ns"] = relaxed
	return nil
}

// fixedPort is a memory port that completes every request after a fixed
// latency through the engine's event queue: the stub below a module under
// test.
type fixedPort struct {
	eng     *engine.Engine
	latency uint64
	level   mem.Level
}

func (p fixedPort) Accept(req *mem.Request) bool {
	p.eng.Schedule(p.latency, func() { req.Complete(p.level) })
	return true
}

// computeKernel is a compute-only kernel: every warp runs a seeded mix of
// INT and SP instructions over a short dependency chain.
func (r *rigs) computeKernel(blocks, warps, insts int) *trace.Kernel {
	k := &trace.Kernel{
		Name:          "rig",
		Grid:          trace.Dim3{X: blocks, Y: 1, Z: 1},
		Block:         trace.Dim3{X: warps * trace.WarpSize, Y: 1, Z: 1},
		RegsPerThread: 16,
	}
	ops := make([]trace.OpClass, insts)
	for i := range ops {
		ops[i] = trace.OpInt
		if r.rng.IntN(2) == 0 {
			ops[i] = trace.OpSP
		}
	}
	for b := 0; b < blocks; b++ {
		var bt trace.BlockTrace
		for w := 0; w < warps; w++ {
			wt := make(trace.WarpTrace, 0, insts+1)
			for i, op := range ops {
				dst := trace.Reg(1 + i%8)
				src := trace.Reg(1 + (i+5)%8)
				wt = append(wt, trace.Inst{PC: uint64(i) * 8, Op: op, Dst: dst, Src: [2]trace.Reg{src}, ActiveMask: 0xffffffff})
			}
			wt = append(wt, trace.Inst{PC: uint64(insts) * 8, Op: trace.OpExit, ActiveMask: 0xffffffff})
			bt.Warps = append(bt.Warps, wt)
		}
		k.Blocks = append(k.Blocks, bt)
	}
	return k
}

// aluProvider is the ALU half of the hybrid unit set: one analytical
// model per sub-core per class.
func aluProvider(cfg config.SM, eng *engine.Engine, g *metrics.Gatherer) func(smID, sub int, class trace.OpClass) smcore.Unit {
	return func(smID, sub int, class trace.OpClass) smcore.Unit {
		lat, lanes := cfg.IntLatency, cfg.IntLanes
		switch class {
		case trace.OpSP:
			lat, lanes = cfg.SPLatency, cfg.SPLanes
		case trace.OpDP:
			lat, lanes = cfg.DPLatency, cfg.DPLanes
		case trace.OpSFU:
			lat, lanes = cfg.SFULatency, cfg.SFULanes
		}
		u := analytic.NewALUModel("alu."+class.String(), eng, lat, cfg.IssueInterval(lanes), g)
		eng.AddModule(u)
		return u
	}
}

// smIssue: one SM with the hybrid (analytical-ALU) unit set and a block
// scheduler, running a compute-only kernel: the issue loop, scoreboard
// and warp scheduler with nothing behind them.
func (r *rigs) smIssue() error {
	k := r.computeKernel(16, 8, 1000)
	if err := k.Validate(); err != nil {
		return fmt.Errorf("sm rig kernel: %w", err)
	}
	var issued uint64
	var runErr error
	d := timeMedian(func() {
		eng := engine.New()
		g := metrics.New()
		cfg := r.gpu.SM
		l1 := fixedPort{eng: eng, latency: 30, level: mem.LevelL1}
		ldst := smcore.NewCycleAccurateUnits(cfg, eng, g, r.gpu.L1.SectorBytes, func(int) mem.Port { return l1 }).LDST
		units := analytic.NewHybridUnits(aluProvider(cfg, eng, g), ldst)
		var bs *smcore.BlockScheduler
		sm, err := smcore.NewSM(0, cfg, eng, units, g, func(sm *smcore.SM) { bs.BlockDone(sm) })
		if err != nil {
			runErr = err
			return
		}
		bs = smcore.NewBlockScheduler([]*smcore.SM{sm}, g)
		eng.Register(bs)
		eng.Register(sm)
		bs.LaunchKernel(k)
		if _, err := eng.Run(bs.KernelDone, 50_000_000); err != nil {
			runErr = err
		} else if err := bs.Err(); err != nil {
			runErr = err
		}
		issued = g.Value("sm.issued")
	})
	if runErr != nil {
		return fmt.Errorf("sm rig: %w", runErr)
	}
	if want := uint64(k.Insts()); issued != want {
		return fmt.Errorf("sm rig: issued %d instructions, kernel has %d", issued, want)
	}
	r.out["smcore.issue_ns_per_inst"] = float64(d.Nanoseconds()) / float64(issued)
	return nil
}

// analyticIssue: one issue to completion through the analytical ALU
// model, and through the Eq. 1 memory model with a real profile.
func (r *rigs) analyticIssue() error {
	const issues = 100000
	var runErr error
	inst := trace.Inst{Op: trace.OpSP, Dst: 1, Src: [2]trace.Reg{2}, ActiveMask: 0xffffffff}
	d := timeMedian(func() {
		eng := engine.New()
		u := analytic.NewALUModel("alu.SP", eng, r.gpu.SM.SPLatency, r.gpu.SM.IssueInterval(r.gpu.SM.SPLanes), metrics.New())
		pending := 0
		done := func() { pending-- }
		for i := 0; i < issues; i++ {
			for !u.TryIssue(eng.Cycle(), &inst, done) {
				if err := runFor(eng, 1); err != nil {
					runErr = err
					return
				}
			}
			pending++
		}
		if _, err := eng.Run(func() bool { return pending == 0 }, 0); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return fmt.Errorf("analytic alu rig: %w", runErr)
	}
	r.out["analytic.alu_issue_ns"] = float64(d.Nanoseconds()) / issues

	// The memory model replays the global loads and stores of one real
	// application's first kernel against that application's profile.
	app := r.apps[0]
	for _, a := range r.apps {
		if a.Name == "NW" {
			app = a
		}
	}
	var insts []*trace.Inst
	for _, b := range app.Kernels[0].Blocks {
		for _, w := range b.Warps {
			for i := range w {
				if w[i].Op.IsGlobalMem() {
					insts = append(insts, &w[i])
				}
			}
		}
	}
	if len(insts) == 0 {
		return fmt.Errorf("analytic mem rig: %s kernel 0 has no global memory instruction", app.Name)
	}
	prof := reuse.ProfileApp(app, r.gpu)
	rounds := 1 + 20000/len(insts)
	d = timeMedian(func() {
		eng := engine.New()
		kernel := 0
		gpu := r.gpu
		u := analytic.NewMemModel("mem", eng, analytic.MemModelParams{
			Profile: prof, KernelIndex: &kernel,
			L1Latency: gpu.L1.HitLatency, L2Latency: gpu.L1.HitLatency + 2*gpu.NoCLatency + gpu.L2.HitLatency,
			DRAMLatency:      gpu.L1.HitLatency + 2*gpu.NoCLatency + gpu.L2.HitLatency + gpu.DRAMLatency,
			SharedMemLatency: gpu.SM.SharedMemLatency, SectorBytes: gpu.L1.SectorBytes, Lanes: gpu.SM.LDSTLanes,
			DRAM:        analytic.NewBandwidthMeterRate(24.0 / float64(gpu.DRAMBanksPerPartition*gpu.MemPartitions)),
			NoC:         analytic.NewBandwidthMeterRate(1 / float64(gpu.MemPartitions)),
			L1Port:      analytic.NewBandwidthMeterRate(1 / float64(gpu.L1.Banks*gpu.L1.Throughput)),
			MSHR:        analytic.NewBandwidthMeterRate(1),
			MSHREntries: gpu.L1.MSHREntries, DivergeCost: 20,
		}, metrics.New())
		pending := 0
		done := func() { pending-- }
		for round := 0; round < rounds; round++ {
			for _, in := range insts {
				for !u.TryIssue(eng.Cycle(), in, done) {
					if err := runFor(eng, 1); err != nil {
						runErr = err
						return
					}
				}
				pending++
			}
		}
		if _, err := eng.Run(func() bool { return pending == 0 }, 0); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return fmt.Errorf("analytic mem rig: %w", runErr)
	}
	r.out["analytic.mem_issue_ns"] = float64(d.Nanoseconds()) / float64(rounds*len(insts))
	return nil
}

// drive pushes one read per address through port, in batches the module
// can hold, running the engine until each batch has completed.
func drive(eng *engine.Engine, port mem.Port, addrs []uint64) error {
	const batch = 8
	completed := 0
	done := func() { completed++ }
	for i := 0; i < len(addrs); {
		issued := 0
		for issued < batch && i < len(addrs) {
			req := &mem.Request{Addr: addrs[i], Size: 32, Done: done}
			if !port.Accept(req) {
				break
			}
			issued++
			i++
		}
		target := i
		if issued == 0 {
			target = completed + 1 // the module is full: let it drain one
		}
		if _, err := eng.Run(func() bool { return completed >= target }, 0); err != nil {
			return err
		}
	}
	return nil
}

// timedCache: the cycle-accurate L1 above a fixed-latency stub, on a
// stream that hits (a hot set the size of a few lines, touched first) and
// on one that misses (sectors never seen before).
func (r *rigs) timedCache() error {
	const accesses = 50000
	hot := make([]uint64, accesses)
	for i := range hot {
		hot[i] = r.rng.Uint64N(64) * 32
	}
	cold := make([]uint64, accesses)
	for i := range cold {
		cold[i] = 1<<30 + uint64(i)*128 + r.rng.Uint64N(4)*32
	}
	var runErr error
	measure := func(warm, addrs []uint64) float64 {
		d := timeMedian(func() {
			eng := engine.New()
			g := metrics.New()
			c := cache.NewTimed("l1", r.gpu.L1, mem.LevelL1, eng, fixedPort{eng: eng, latency: 50, level: mem.LevelL2}, g)
			eng.Register(c)
			if err := drive(eng, c, warm); err != nil {
				runErr = err
				return
			}
			if err := drive(eng, c, addrs); err != nil {
				runErr = err
			}
		})
		return float64(d.Nanoseconds()) / float64(len(warm)+len(addrs))
	}
	warm := make([]uint64, 64)
	for i := range warm {
		warm[i] = uint64(i) * 32
	}
	hit := measure(warm, hot)
	miss := measure(nil, cold)
	if runErr != nil {
		return fmt.Errorf("timed cache rig: %w", runErr)
	}
	r.out["cache.timed_hit_ns"] = hit
	r.out["cache.timed_miss_ns"] = miss
	return nil
}

func (r *rigs) crossbar() error {
	const msgs, parts = 50000, 4
	addrs := make([]uint64, msgs)
	for i := range addrs {
		addrs[i] = r.rng.Uint64N(1<<20) * 32
	}
	var runErr error
	d := timeMedian(func() {
		eng := engine.New()
		targets := make([]mem.Port, parts)
		for i := range targets {
			targets[i] = fixedPort{eng: eng, latency: 10, level: mem.LevelL2}
		}
		mapAddr := func(addr uint64) int { return int((addr / 32) % parts) }
		x := noc.NewCrossbar("noc", eng, targets, mapAddr, uint64(r.gpu.NoCLatency), 1, metrics.New())
		eng.Register(x)
		if err := drive(eng, x, addrs); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return fmt.Errorf("crossbar rig: %w", runErr)
	}
	r.out["noc.msg_ns"] = float64(d.Nanoseconds()) / msgs
	return nil
}

func (r *rigs) dramPartition() error {
	const reqs = 100000
	// Half the stream walks rows in order (row hits), half jumps.
	addrs := make([]uint64, reqs)
	for i := range addrs {
		if i%2 == 0 {
			addrs[i] = uint64(i) * 32
		} else {
			addrs[i] = r.rng.Uint64N(1<<24) * 32
		}
	}
	var runErr error
	d := timeMedian(func() {
		eng := engine.New()
		p := dram.New("dram", eng, r.gpu.DRAMBanksPerPartition, r.gpu.DRAMLatency, r.gpu.DRAMRowHitLatency, metrics.New())
		eng.Register(p)
		if err := drive(eng, p, addrs); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return fmt.Errorf("dram rig: %w", runErr)
	}
	r.out["dram.req_ns"] = float64(d.Nanoseconds()) / reqs
	return nil
}

// runnerPool: runner.Run over the 20 Basic jobs (at the service rigs'
// scale) with two workers against one. 100% means the second worker
// halves the time; on a one-core host it cannot. canonical then renders
// those results to their canonical bytes, which the service does once per
// job and every golden comparison once per case.
func (r *rigs) runnerPool() error {
	jobs := make([]runner.Job, 0, len(r.apps))
	for _, name := range workload.Names() {
		app, err := workload.Generate(name, rigSweepScale)
		if err != nil {
			return err
		}
		jobs = append(jobs, runner.Job{App: app, GPU: r.gpu, Opts: sim.Options{Kind: sim.Basic}})
	}
	var runErr error
	var outcomes []runner.Outcome
	timeWith := func(threads int) time.Duration {
		return timeMedian(func() {
			outcomes = runner.RunAll(jobs, threads)
			for _, o := range outcomes {
				if o.Err != nil {
					runErr = o.Err
				}
			}
		})
	}
	one, two := timeWith(1), timeWith(2)
	if runErr != nil {
		return fmt.Errorf("runner rig: %w", runErr)
	}
	r.out["runner.parallel_eff_pct"] = float64(one) / (2 * float64(two)) * 100

	const rounds = 20
	d := timeMedian(func() {
		for i := 0; i < rounds; i++ {
			for _, o := range outcomes {
				if len(regress.Canonical(o.Result)) == 0 {
					panic("empty canonical rendering")
				}
			}
		}
	})
	r.out["regress.canonical_us"] = float64(d.Nanoseconds()) / 1e3 / float64(rounds*len(outcomes))
	return nil
}

// snapshot: a sim.L2Hybrid run that checkpoints at its first quiescent
// kernel boundary, and the run resumed from that checkpoint. Both are
// whole sim.Run calls, as a user of SnapshotTo / RestoreFrom sees them.
func (r *rigs) snapshot() error {
	app, err := workload.Generate("BFS", rigScale)
	if err != nil {
		return err
	}
	var snapBytes []byte
	var want []byte
	var runErr error
	save := timeMedian(func() {
		var buf bytes.Buffer
		res, err := sim.Run(app, r.gpu, sim.Options{Kind: sim.L2Hybrid, SnapshotTo: &buf})
		if err != nil {
			runErr = err
			return
		}
		snapBytes, want = buf.Bytes(), regress.Canonical(res)
	})
	if runErr != nil {
		return fmt.Errorf("snapshot rig: save: %w", runErr)
	}
	restore := timeMedian(func() {
		res, err := sim.Run(app, r.gpu, sim.Options{Kind: sim.L2Hybrid, RestoreFrom: bytes.NewReader(snapBytes)})
		if err != nil {
			runErr = err
			return
		}
		if !bytes.Equal(regress.Canonical(res), want) {
			runErr = fmt.Errorf("the resumed run's canonical bytes differ from the checkpointing run's")
		}
	})
	if runErr != nil {
		return fmt.Errorf("snapshot rig: restore: %w", runErr)
	}
	r.out["snap.save_ms"] = float64(save.Nanoseconds()) / 1e6
	r.out["snap.restore_ms"] = float64(restore.Nanoseconds()) / 1e6
	r.out["snap.bytes"] = float64(len(snapBytes))
	return nil
}

func (r *rigs) goldenModel() error {
	app, err := workload.Generate("NW", rigScale)
	if err != nil {
		return err
	}
	var runErr error
	d := timeMedian(func() {
		if _, err := hwmodel.Run(app, r.gpu, hwmodel.DefaultParams()); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return fmt.Errorf("hwmodel rig: %w", runErr)
	}
	r.out["hwmodel.run_s"] = d.Seconds()
	return nil
}
