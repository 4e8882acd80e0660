// Package analytic implements the paper's two working examples of hybrid
// modeling (§III-D): an analytical ALU-pipeline model and an analytical
// memory-access model based on Eq. 1. Both implement smcore.Unit, so an
// assembly swaps them in for the cycle-accurate pipelines without touching
// the Warp Scheduler & Dispatch module — the whole point of Swift-Sim's
// modular design.
package analytic

import (
	"fmt"
	"math"

	"swiftsim/internal/engine"
	"swiftsim/internal/metrics"
	"swiftsim/internal/reuse"
	"swiftsim/internal/smcore"
	"swiftsim/internal/trace"
)

// ALUModel replaces an ALUPipeline with the improved analytical model of
// §III-D1: the instruction's completion time is its fixed execution
// latency plus the delay caused by issue-port contention — and the
// contention component is still tracked exactly (via the unit's next-free
// bookkeeping) rather than estimated with a queueing formula, which is what
// keeps the accuracy degradation small. No per-cycle state is evaluated:
// completion is a single scheduled event.
type ALUModel struct {
	name     string
	eng      engine.Context
	latency  uint64
	interval uint64
	freeAt   uint64 // issue port next free (absolute cycle)

	issued     *metrics.Counter
	contention *metrics.Counter
}

// NewALUModel builds an analytical ALU with the same parameters as the
// cycle-accurate pipeline it replaces. It is NewALUModels' batch of one.
func NewALUModel(name string, eng engine.Context, latency, interval int, g *metrics.Gatherer) *ALUModel {
	return &NewALUModels(1, name, eng, latency, interval, g)[0]
}

// NewALUModels builds n units of one class in one slice: the same
// parameters and the same counters, each with an issue port of its own. An
// assembly builds each class's NumSMs×SubCores units with one call, so the
// counter names are built and resolved once per class and the units cost
// one allocation, not one each.
func NewALUModels(n int, name string, eng engine.Context, latency, interval int, g *metrics.Gatherer) []ALUModel {
	u := ALUModel{
		name:       name,
		eng:        eng,
		latency:    uint64(latency),
		interval:   uint64(max(interval, 1)),
		issued:     g.Counter(name + ".issued"),
		contention: g.Counter(name + ".contention_cycles"),
	}
	units := make([]ALUModel, n)
	for i := range units {
		units[i] = u
	}
	return units
}

// Name implements engine.Module.
func (u *ALUModel) Name() string { return u.name }

// Kind implements engine.Module.
func (u *ALUModel) Kind() engine.ModelKind { return engine.Analytical }

// Busy implements smcore.Unit: analytical units never require ticking.
func (u *ALUModel) Busy() bool { return false }

// Tick implements smcore.Unit as a no-op.
func (u *ALUModel) Tick(uint64) {}

// TryIssue implements smcore.Unit. The analytical unit never refuses an
// instruction: port contention is folded into the completion delay instead
// of bouncing the scheduler, which is what removes the per-cycle retry
// work.
func (u *ALUModel) TryIssue(cycle uint64, in *trace.Inst, done func()) bool {
	start := cycle
	if u.freeAt > start {
		start = u.freeAt
	}
	delay := (start - cycle) + u.latency
	u.contention.Add(start - cycle)
	u.freeAt = start + u.interval
	u.issued.Inc()
	u.eng.Schedule(delay, done)
	return true
}

// BandwidthMeter models aggregate DRAM bandwidth contention for the
// analytical memory model: each DRAM-bound sector reserves service time on
// a shared virtual channel, and the extra queueing delay is returned to the
// requester. This is the "additional latency due to resource contention"
// the paper adds on top of Eq. 1's expected latency.
type BandwidthMeter struct {
	// cyclesPerSector is the aggregate service cost of one sector across
	// all partitions (1 / (partitions × sectors-per-cycle-per-partition)).
	cyclesPerSector float64
	freeAt          float64
}

// NewBandwidthMeter builds a meter for a GPU with the given number of
// memory partitions, each able to transfer one sector per cycle.
func NewBandwidthMeter(partitions int) *BandwidthMeter {
	return NewBandwidthMeterRate(1 / float64(max(partitions, 1)))
}

// NewBandwidthMeterRate builds a meter with an explicit aggregate service
// cost per sector, for channels whose rate is not one sector per cycle per
// unit (e.g. DRAM banks with multi-cycle occupancy). It is
// NewBandwidthMeters' batch of one.
func NewBandwidthMeterRate(cyclesPerSector float64) *BandwidthMeter {
	return &NewBandwidthMeters(1, cyclesPerSector)[0]
}

// NewBandwidthMeters builds n meters of one rate in one slice, such as the
// per-SM L1-port meters of an assembly.
func NewBandwidthMeters(n int, cyclesPerSector float64) []BandwidthMeter {
	if cyclesPerSector <= 0 {
		cyclesPerSector = 1
	}
	meters := make([]BandwidthMeter, n)
	for i := range meters {
		meters[i].cyclesPerSector = cyclesPerSector
	}
	return meters
}

// Reserve books sectors×weight sector transfers starting no earlier than
// now and returns the queueing delay in cycles.
func (m *BandwidthMeter) Reserve(now uint64, sectors float64) uint64 {
	return m.ReserveCost(now, sectors*m.cyclesPerSector)
}

// ReserveCost books an explicit service cost in cycles (for channels whose
// per-transaction cost varies by request) and returns the queueing delay.
func (m *BandwidthMeter) ReserveCost(now uint64, cycles float64) uint64 {
	start := float64(now)
	if m.freeAt > start {
		start = m.freeAt
	}
	m.freeAt = start + cycles
	return uint64(start - float64(now))
}

// MemModel replaces the LD/ST unit and the entire memory hierarchy
// (L1/NoC/L2/DRAM) with the classical analytical model of §III-D2: a
// global-memory instruction's latency is Eq. 1's expectation over the
// per-PC hit rates extracted by the reuse package, plus cycle-accurately
// tracked contention (LD/ST issue-port occupancy and aggregate DRAM
// bandwidth). Shared-memory accesses keep the conflict model of the
// cycle-accurate unit, which needs no global state.
//
// An instruction's sector count, bank-conflict degree and static id come
// from the row the profiler recorded at its MemIndex (reuse.Fact), so the
// unit never reads lane addresses or PCs: issuing is arithmetic.
type MemModel struct {
	name        string
	eng         *engine.Engine
	facts       [][]reuse.Fact // the profile's, by kernel then MemIndex
	kernel      *int           // current kernel index, shared across all instances
	eq1Base     []int          // by kernel: its static instructions' first row in eq1
	eq1         []eq1Row       // the run's, shared by all its instances
	latL1       float64
	latL2       float64
	latDRAM     float64
	shmemLat    uint64
	lanes       int
	freeAt      uint64
	dram        *BandwidthMeter
	l1port      *BandwidthMeter
	noc         *BandwidthMeter
	mshr        *BandwidthMeter
	mshrEntries float64
	divergeCost float64

	issued       *metrics.Counter
	transactions *metrics.Counter
	contention   *metrics.Counter
}

// eq1Row is what Eq. 1 reads of one static global-memory instruction in a
// run: its rates, and the two powers of them for each sector count the run
// has issued it with. The powers are the run's, never the profile's: a
// profile is shared by concurrent runs and must stay immutable.
type eq1Row struct {
	rates  reuse.Rates
	filled uint32         // bit s-1 set: pows[s-1] holds s sectors' powers
	pows   [32][2]float64 // {L1^s, (1-DRAM)^s}
}

// powers returns math.Pow(rates.L1, s) and math.Pow(1-rates.DRAM, s), the
// probabilities that all s sectors hit the L1 and that none reaches DRAM,
// calling math.Pow on the row's first use of s only.
func (r *eq1Row) powers(s int) (allL1, noDRAM float64) {
	if uint(s-1) >= uint(len(r.pows)) { // no lane, or more than a warp's
		return math.Pow(r.rates.L1, float64(s)), math.Pow(1-r.rates.DRAM, float64(s))
	}
	if r.filled&(1<<(s-1)) == 0 {
		r.pows[s-1] = [2]float64{math.Pow(r.rates.L1, float64(s)), math.Pow(1-r.rates.DRAM, float64(s))}
		r.filled |= 1 << (s - 1)
	}
	return r.pows[s-1][0], r.pows[s-1][1]
}

// newEq1Rows lays every kernel's static instructions end to end in one row
// slice, each row holding its rates; base[k] is kernel k's first row.
func newEq1Rows(p *reuse.Profile) (base []int, rows []eq1Row) {
	base = make([]int, len(p.ByID))
	n := 0
	for k, rates := range p.ByID {
		base[k] = n
		n += len(rates)
	}
	rows = make([]eq1Row, n)
	for k, rates := range p.ByID {
		for id, r := range rates {
			rows[base[k]+id].rates = r
		}
	}
	return base, rows
}

// MemModelParams collects the shared configuration of all MemModel
// instances of one simulator.
type MemModelParams struct {
	// Profile supplies Eq. 1's hit rates and every memory instruction's
	// facts. It must be the profile of the trace the unit is issued.
	Profile *reuse.Profile
	// KernelIndex points at the simulator's current kernel counter, which
	// selects the kernel's facts and rates.
	KernelIndex *int
	// L1Latency, L2Latency, DRAMLatency are Eq. 1's L_L1, L_L2, L_DRAM.
	L1Latency, L2Latency, DRAMLatency int
	// SharedMemLatency is the shared-memory access latency.
	SharedMemLatency int
	// SectorBytes is the coalescing granularity. The profile's sector
	// counts must have been coalesced at it.
	SectorBytes int
	// Lanes is the LD/ST lane count (sectors accepted per cycle).
	Lanes int
	// DRAM is the shared bandwidth meter (one per simulated GPU).
	DRAM *BandwidthMeter
	// L1Port optionally models the SM's L1 access bandwidth (one meter
	// shared by the sub-cores of one SM); nil disables the term.
	L1Port *BandwidthMeter
	// NoC optionally models aggregate interconnect bandwidth (one meter
	// per simulated GPU); nil disables the term.
	NoC *BandwidthMeter
	// DivergeCost is the serialization cost per additional DRAM-bound
	// sector of one divergent load (the MDM-style memory-divergence
	// penalty); 0 disables the term.
	DivergeCost float64
	// MSHR optionally models the per-SM MSHR file's throughput limit:
	// each missing sector occupies one of MSHREntries entries for its
	// full round trip, bounding the SM's memory-level parallelism. One
	// meter per SM; nil disables the term.
	MSHR        *BandwidthMeter
	MSHREntries int
}

// NewMemModel builds one analytical LD/ST replacement (one per sub-core).
// It is NewMemModels' batch of one.
func NewMemModel(name string, eng *engine.Engine, p MemModelParams, g *metrics.Gatherer) *MemModel {
	return &NewMemModels(1, name, eng, p, g)[0]
}

// NewMemModels builds n units of one class in one slice, as NewALUModels
// does. They share the Eq. 1 rows of a run, so a run fills each power once,
// and each stands behind p's per-SM meters until the assembly moves it
// behind its own SM's with SetSMMeters. It panics on a profile coalesced at
// a sector size other than p.SectorBytes, whose sector counts would be
// wrong.
func NewMemModels(n int, name string, eng *engine.Engine, p MemModelParams, g *metrics.Gatherer) []MemModel {
	if p.Profile.SectorBytes != p.SectorBytes {
		panic(fmt.Sprintf("analytic: memory model %s models %d-byte sectors, its profile was coalesced at %d",
			name, p.SectorBytes, p.Profile.SectorBytes))
	}
	base, rows := newEq1Rows(p.Profile)
	u := MemModel{
		name:         name,
		eng:          eng,
		facts:        p.Profile.Facts,
		kernel:       p.KernelIndex,
		eq1Base:      base,
		eq1:          rows,
		latL1:        float64(p.L1Latency),
		latL2:        float64(p.L2Latency),
		latDRAM:      float64(p.DRAMLatency),
		shmemLat:     uint64(p.SharedMemLatency),
		lanes:        max(p.Lanes, 1),
		dram:         p.DRAM,
		l1port:       p.L1Port,
		noc:          p.NoC,
		mshr:         p.MSHR,
		mshrEntries:  float64(p.MSHREntries),
		divergeCost:  p.DivergeCost,
		issued:       g.Counter(name + ".issued"),
		transactions: g.Counter(name + ".transactions"),
		contention:   g.Counter(name + ".contention_cycles"),
	}
	units := make([]MemModel, n)
	for i := range units {
		units[i] = u
	}
	return units
}

// SetSMMeters puts u behind the given per-SM meters
// (MemModelParams.L1Port and MSHR).
func (u *MemModel) SetSMMeters(l1port, mshr *BandwidthMeter) {
	u.l1port, u.mshr = l1port, mshr
}

// Name implements engine.Module.
func (u *MemModel) Name() string { return u.name }

// Kind implements engine.Module.
func (u *MemModel) Kind() engine.ModelKind { return engine.Analytical }

// Busy implements smcore.Unit.
func (u *MemModel) Busy() bool { return false }

// Tick implements smcore.Unit as a no-op.
func (u *MemModel) Tick(uint64) {}

// TryIssue implements smcore.Unit.
func (u *MemModel) TryIssue(cycle uint64, in *trace.Inst, done func()) bool {
	u.issued.Inc()

	kernel := 0
	if u.kernel != nil {
		kernel = *u.kernel
	}
	fact := u.facts[kernel][in.MemIndex]
	if in.Op.IsSharedMem() {
		deg := int(fact.N)
		u.eng.Schedule(u.shmemLat+uint64(4*(deg-1)), done)
		return true
	}

	sectors := int(fact.N)
	u.transactions.Add(uint64(sectors))

	// LD/ST issue-port occupancy: the unit is held for the cycles needed
	// to inject all sector transactions.
	start := cycle
	if u.freeAt > start {
		start = u.freeAt
	}
	occupancy := uint64((sectors + u.lanes - 1) / u.lanes)
	u.freeAt = start + occupancy
	portDelay := start - cycle

	row := &u.eq1[u.eq1Base[kernel]+int(fact.ID)]
	rates := row.rates

	// Contention adder: every sector occupies the SM's L1 port and the
	// interconnect; the DRAM-bound fraction also occupies the aggregate
	// DRAM channel.
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
		// Stores retire once handed to the (write-through) L1, but
		// their traffic still occupies downstream bandwidth.
		base = u.latL1
		dramDelay = u.dram.Reserve(cycle, float64(sectors))
	} else {
		// Multi-sector generalization of Eq. 1: a warp load completes
		// when its slowest sector returns, so with s independent
		// sectors the expected latency steps up to a level's latency
		// once *any* sector is serviced there. For s = 1 this is
		// exactly Eq. 1.
		sf := float64(sectors)
		allL1, noDRAM := row.powers(sectors)
		pBeyondL1 := 1 - allL1
		pDRAM := 1 - noDRAM
		base = u.latL1 + (u.latL2-u.latL1)*pBeyondL1 + (u.latDRAM-u.latL2)*pDRAM
		// Memory-divergence serialization (after MDM): the DRAM-bound
		// sectors of one divergent load contend for banks and return
		// bandwidth, so each additional one delays the warp's restart.
		if sectors > 1 {
			base += u.divergeCost * (sf - 1) * rates.DRAM
		}
		dramDelay = u.dram.Reserve(cycle, sf*rates.DRAM)
		// MSHR-limited memory-level parallelism (after MDM): every
		// missing sector holds an MSHR entry for its round trip, so the
		// SM's aggregate miss throughput is entries/latency.
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

// NewHybridUnits builds the UnitSet of Swift-Sim-Basic: analytical ALUs
// (one shared ALUModel per class per sub-core) with the caller-supplied
// LD/ST provider (cycle-accurate for Basic, analytical for Memory).
func NewHybridUnits(aluFor func(smID, sub int, class trace.OpClass) smcore.Unit, ldstFor func(smID, sub int) smcore.Unit) smcore.UnitSet {
	return smcore.UnitSet{ALU: aluFor, LDST: ldstFor}
}
