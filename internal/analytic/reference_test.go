package analytic

import (
	"math"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/engine"
	"swiftsim/internal/metrics"
	"swiftsim/internal/reuse"
	"swiftsim/internal/smcore"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// refMemModel is MemModel.TryIssue as it was before the profiler recorded
// each instruction's facts: it coalesces the lanes, scans the banks, looks
// the rates up in PerPC by (kernel, PC) and calls math.Pow on every issue.
// It embeds a unit of its own for everything else (meters, latencies,
// counters, issue port), so it and the unit under test differ in those
// lookups alone.
type refMemModel struct {
	*MemModel
	prof        *reuse.Profile
	sectorBytes int
}

func (u *refMemModel) TryIssue(cycle uint64, in *trace.Inst, done func()) bool {
	u.issued.Inc()

	var addrs [32]uint64
	if in.Op.IsSharedMem() {
		deg := smcore.SharedBankConflicts(in.Lanes(&addrs))
		u.eng.Schedule(u.shmemLat+uint64(4*(deg-1)), done)
		return true
	}

	var lanes [32]uint64
	sectors := len(smcore.CoalesceInto(lanes[:0], in.Lanes(&addrs), u.sectorBytes))
	u.transactions.Add(uint64(sectors))

	start := cycle
	if u.freeAt > start {
		start = u.freeAt
	}
	occupancy := uint64((sectors + u.lanes - 1) / u.lanes)
	u.freeAt = start + occupancy
	portDelay := start - cycle

	kernel := 0
	if u.kernel != nil {
		kernel = *u.kernel
	}
	rates, ok := u.prof.PerPC[reuse.Key{Kernel: kernel, PC: in.PC}]
	if !ok {
		rates = u.prof.Default
	}

	var l1Delay, nocDelay uint64
	if u.l1port != nil {
		l1Delay = u.l1port.Reserve(cycle, float64(sectors))
	}
	if u.noc != nil {
		nocDelay = u.noc.Reserve(cycle, float64(sectors))
	}
	var base float64
	var dramDelay uint64
	if in.Op == trace.OpStoreGlobal {
		base = u.latL1
		dramDelay = u.dram.Reserve(cycle, float64(sectors))
	} else {
		sf := float64(sectors)
		pBeyondL1 := 1 - math.Pow(rates.L1, sf)
		pDRAM := 1 - math.Pow(1-rates.DRAM, sf)
		base = u.latL1 + (u.latL2-u.latL1)*pBeyondL1 + (u.latDRAM-u.latL2)*pDRAM
		if sectors > 1 {
			base += u.divergeCost * (sf - 1) * rates.DRAM
		}
		dramDelay = u.dram.Reserve(cycle, sf*rates.DRAM)
		if u.mshr != nil && u.mshrEntries > 0 {
			missRTT := u.latL2*rates.L2 + u.latDRAM*rates.DRAM
			cost := sf * missRTT / u.mshrEntries
			d := u.mshr.ReserveCost(cycle, cost)
			u.contention.Add(d)
			if d > dramDelay {
				dramDelay = d
			}
		}
	}

	contention := portDelay + l1Delay + nocDelay + dramDelay
	u.contention.Add(contention)
	u.eng.Schedule(contention+uint64(base), done)
	return true
}

// memSide is one side of the side-by-side drive: a unit with an engine,
// gatherer and meters of its own, parameterised as a Memory assembly does.
type memSide struct {
	eng  *engine.Engine
	g    *metrics.Gatherer
	unit *MemModel
	try  func(cycle uint64, in *trace.Inst, done func()) bool
}

func newMemSide(gpu config.GPU, prof *reuse.Profile, kernel *int) *memSide {
	s := &memSide{eng: engine.New(), g: metrics.New()}
	l1Hit := gpu.L1.HitLatency
	l2End := l1Hit + 2*gpu.NoCLatency + gpu.L2.HitLatency
	s.unit = NewMemModel("mem", s.eng, MemModelParams{
		Profile: prof, KernelIndex: kernel,
		L1Latency: l1Hit, L2Latency: l2End, DRAMLatency: l2End + gpu.DRAMLatency,
		SharedMemLatency: gpu.SM.SharedMemLatency, SectorBytes: gpu.L1.SectorBytes, Lanes: gpu.SM.LDSTLanes,
		DRAM:   NewBandwidthMeterRate(24.0 / float64(gpu.DRAMBanksPerPartition*gpu.MemPartitions)),
		NoC:    NewBandwidthMeterRate(1 / float64(gpu.MemPartitions)),
		L1Port: NewBandwidthMeterRate(1 / float64(gpu.L1.Banks*gpu.L1.Throughput)),
		MSHR:   NewBandwidthMeterRate(1), MSHREntries: gpu.L1.MSHREntries, DivergeCost: 20,
	}, s.g)
	s.try = s.unit.TryIssue
	return s
}

// issue issues in at cycle and runs the side's engine until it completes,
// returning the delay the unit scheduled.
func (s *memSide) issue(t *testing.T, cycle uint64, in *trace.Inst) uint64 {
	fired := false
	before := s.eng.Cycle()
	if !s.try(cycle, in, func() { fired = true }) {
		t.Fatal("the analytical memory model refused an instruction")
	}
	if _, err := s.eng.Run(func() bool { return fired }, 0); err != nil {
		t.Fatal(err)
	}
	return s.eng.Cycle() - before
}

// memState is everything a call can move besides the delay: the counters,
// and the issue port's and every meter's booked-until time.
type memState struct {
	transactions, contention, port uint64
	dram, noc, l1port, mshr        float64
}

func (s *memSide) state() memState {
	u := s.unit
	return memState{
		s.g.Value("mem.transactions"), s.g.Value("mem.contention_cycles"), u.freeAt,
		u.dram.freeAt, u.noc.freeAt, u.l1port.freeAt, u.mshr.freeAt,
	}
}

// TestMemModelMatchesReference drives the memory model and refMemModel side
// by side over every memory instruction of the 20 catalog apps on the three
// presets, under profiles from both hit-rate sources, in block → warp →
// instruction order, two instructions a cycle so the port and every meter
// queue. After every call the scheduled delay, the transactions and
// contention counters and every booked-until time must agree exactly: the
// facts the profiler recorded, the rates by id and the run's powers are
// the per-issue computation they replace, bit for bit.
func TestMemModelMatchesReference(t *testing.T) {
	for _, preset := range config.PresetNames() {
		gpu, _ := config.Preset(preset)
		for _, name := range workload.Names() {
			app, err := workload.Generate(name, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range []struct {
				name    string
				profile func(*trace.App, config.GPU) *reuse.Profile
			}{{"functional", reuse.ProfileApp}, {"distance", reuse.ProfileAppReuseDistance}} {
				prof := src.profile(app, gpu)
				var kernel int
				got := newMemSide(gpu, prof, &kernel)
				want := newMemSide(gpu, prof, &kernel)
				ref := &refMemModel{MemModel: want.unit, prof: prof, sectorBytes: gpu.L1.SectorBytes}
				want.try = ref.TryIssue
				calls := 0
				for ki, k := range app.Kernels {
					kernel = ki
					for bi := range k.Blocks {
						for wi, w := range k.Blocks[bi].Warps {
							for i := range w {
								in := &w[i]
								if !in.Op.IsMem() {
									continue
								}
								cycle := uint64(calls / 2)
								calls++
								if have, ref := got.issue(t, cycle, in), want.issue(t, cycle, in); have != ref {
									t.Fatalf("%s %s %s kernel %d block %d warp %d inst %d (%v): delay %d, reference %d",
										preset, name, src.name, ki, bi, wi, i, in.Op, have, ref)
								}
								if have, ref := got.state(), want.state(); have != ref {
									t.Fatalf("%s %s %s kernel %d block %d warp %d inst %d (%v): %+v, reference %+v",
										preset, name, src.name, ki, bi, wi, i, in.Op, have, ref)
								}
							}
						}
					}
				}
				if calls == 0 {
					t.Fatalf("%s has no memory instruction", name)
				}
			}
		}
	}
}
