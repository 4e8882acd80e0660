// Package reuse extracts the per-PC cache hit rates consumed by the
// analytical memory model of the paper's Eq. 1
// (L_inst = L_L1·R_L1 + L_L2·R_L2 + L_DRAM·R_DRAM).
//
// The paper obtains R_L1/R_L2/R_DRAM "using a reuse distance tool or cache
// simulator"; this package implements both sources over the same
// block-interleaved access stream:
//
//   - ProfileApp runs timeless functional sectored caches (exact
//     organization, including the configured replacement policy);
//   - ProfileAppReuseDistance computes true LRU stack distances with a
//     Fenwick tree and classifies hits by capacity, the classical
//     reuse-distance-theory approach (which, as the paper notes, is
//     inherently LRU-only).
//
// Both profilers run in two phases so the L1 work parallelizes across
// kernels without changing a single output bit. The L1 state (functional
// caches or distance trackers) is reset at every kernel boundary — the
// non-coherent L1 flush of real GPUs — so each kernel's L1 filtering is
// independent and runs on its own worker; it yields per-PC L1 hit counts
// plus the ordered list of accesses that escaped the L1. The shared L2
// persists across kernels, so phase two replays those escape lists through
// it serially in kernel order — the exact access sequence a serial run
// produces.
//
// The two phases are exported (FilterL1, ReplayL2) with what each reads of
// the configuration as its argument (L1Geometry, Level), so a caller
// profiling one trace under many design points can keep a phase-one result
// and replay it: an L2-size, latency or partition sweep filters the trace
// through the L1s once.
//
// Phase one coalesces every global-memory instruction anyway, so it also
// records each dynamic memory instruction's Fact (static id, sector count
// or bank-conflict degree) at the instruction's MemIndex. The analytical
// memory model then indexes those rows during simulation instead of
// re-reading lane addresses and hashing PCs.
package reuse

import (
	"runtime"
	"slices"
	"sync"

	"swiftsim/internal/cache"
	"swiftsim/internal/config"
	"swiftsim/internal/smcore"
	"swiftsim/internal/trace"
)

// Key identifies a static memory instruction: kernel index within the
// application plus the instruction's PC.
type Key struct {
	Kernel int
	PC     uint64
}

// Rates is the level-of-service distribution of one static instruction:
// the fractions of its sector transactions serviced by the L1, the L2, and
// DRAM. The three fields sum to 1 for any instruction with traffic.
type Rates struct {
	L1, L2, DRAM float64
}

// Fact is what the analytical memory model needs of one dynamic memory
// instruction besides its rates. Phase one records it while it walks the
// trace, in a row at the instruction's trace.Inst.MemIndex, so the model
// reads a row instead of re-reading the instruction's lane addresses.
type Fact struct {
	// ID is a global-memory instruction's static id within its kernel, the
	// index of its rates in Profile.ByID; zero for shared memory.
	ID uint32
	// N is a global-memory instruction's sector count after coalescing at
	// Profile.SectorBytes, or a shared-memory instruction's bank-conflict
	// degree (smcore.SharedBankConflicts).
	N uint32
}

// Profile holds the extracted hit rates for one application.
type Profile struct {
	// PerPC maps each static global-memory instruction to its rates. It is
	// the canonical form of the profile; ByID holds the same rates by id.
	PerPC map[Key]Rates
	// ByID holds, per kernel, the rates of each static global-memory
	// instruction by its id: ByID[k][id] == PerPC[Key{k, pc}].
	ByID [][]Rates
	// Facts holds, per kernel, one row per memory instruction at its
	// MemIndex, up to the kernel's largest index; a sampled kernel's
	// unsimulated blocks leave their rows zero. It is shared with the
	// phase-one result the profile was replayed from.
	Facts [][]Fact
	// SectorBytes is the sector size Facts' sector counts were coalesced
	// at.
	SectorBytes int
	// Default is the application-wide aggregate.
	Default Rates
	// DefaultReads is the application-wide aggregate restricted to load
	// transactions. Stores are never serviced by the write-through
	// no-allocate L1, so read-only rates are the ones directly comparable
	// to the timed caches' read_hit/read_miss counters (the differential
	// oracle in internal/regress relies on this).
	DefaultReads Rates
	// Accesses is the total number of sector transactions profiled.
	Accesses uint64
}

// counts accumulates per-level service counts during profiling.
type counts struct {
	l1, l2, dram uint64
}

func (c counts) total() uint64 { return c.l1 + c.l2 + c.dram }

func (c counts) rates() Rates {
	t := c.total()
	if t == 0 {
		return Rates{L1: 1}
	}
	return Rates{
		L1:   float64(c.l1) / float64(t),
		L2:   float64(c.l2) / float64(t),
		DRAM: float64(c.dram) / float64(t),
	}
}

// Level is everything a profiler reads of one cache level's configuration,
// and nothing else: the five fields cache.Functional reads, or under the
// reuse-distance source the capacity in sectors alone. It is comparable, so
// a memo of profiler output keys on it (internal/sim/profcache.go) and two
// configurations that differ only in fields no profiler reads — hit
// latency, banks, MSHRs — share one entry.
type Level struct {
	Distance bool
	// Capacity is the level's size in sectors (reuse-distance source).
	Capacity uint64
	// Functional-cache source; zero under Distance.
	Sets, Ways, LineBytes, SectorBytes int
	Replacement                        config.Replacement
}

// levelOf projects c, replicated over slices slices of equal geometry.
func levelOf(c config.Cache, slices int, distance bool) Level {
	if distance {
		return Level{Distance: true, Capacity: uint64(c.Sets*c.Ways*c.SectorsPerLine()) * uint64(slices)}
	}
	return Level{
		Sets: c.Sets * slices, Ways: c.Ways, LineBytes: c.LineBytes, SectorBytes: c.SectorBytes,
		Replacement: c.Replacement,
	}
}

// L2LevelOf returns what phase two reads of gpu: one cache with the
// aggregate capacity of all L2 slices.
func L2LevelOf(gpu config.GPU, distance bool) Level {
	return levelOf(gpu.L2, gpu.MemPartitions, distance)
}

// levelModel is one instance of a Level: a functional cache or a distance
// tracker. The zero value is unbuilt; reset builds it.
type levelModel struct {
	distance bool
	fn       *cache.Functional
	dt       *distanceTracker
	cap      uint64
}

// reset makes m a fresh instance of l, reusing the tag array or tracker m
// already holds.
func (m *levelModel) reset(l Level) {
	m.distance, m.cap = l.Distance, l.Capacity
	cfg := config.Cache{
		Sets: l.Sets, Ways: l.Ways, LineBytes: l.LineBytes, SectorBytes: l.SectorBytes,
		Replacement: l.Replacement,
	}
	switch {
	case l.Distance && m.dt != nil:
		m.dt.reset()
	case l.Distance:
		m.dt = newDistanceTracker()
	case m.fn != nil:
		m.fn.Reset(cfg)
	default:
		m.fn = cache.NewFunctional(cfg)
	}
}

// hit runs one sector access through the model: a functional-cache lookup
// (misses install), or a stack distance below the capacity.
func (m *levelModel) hit(sector uint64, write bool) bool {
	if m.distance {
		return m.dt.access(sector) < m.cap
	}
	return m.fn.Access(sector, write)
}

// l2Spares holds aggregate-L2 models between replays. The functional one is
// a tag array of megabytes; a replay resets a spare rather than allocating
// and zeroing a fresh one, and the pool hands idle ones back to the
// collector.
var l2Spares = sync.Pool{New: func() any { return new(levelModel) }}

// L1Geometry is everything phase one reads besides the trace.
type L1Geometry struct {
	// SMs is the block→SM partition: block bi of every kernel runs on SM
	// bi%SMs. It is min(NumSMs, the largest kernel's block count), because
	// bi%NumSMs is the identity for every kernel once NumSMs reaches that
	// count: all larger GPUs partition the trace the same way.
	SMs int
	// CoalesceBytes is the sector size per-lane addresses coalesce to.
	CoalesceBytes int
	// L1 is the per-SM cache.
	L1 Level
}

// L1GeometryOf returns what phase one reads of gpu when profiling app.
func L1GeometryOf(app *trace.App, gpu config.GPU, distance bool) L1Geometry {
	sms := 1
	for _, k := range app.Kernels {
		if len(k.Blocks) > sms {
			sms = len(k.Blocks)
		}
	}
	if gpu.NumSMs < sms {
		sms = gpu.NumSMs
	}
	return L1Geometry{SMs: sms, CoalesceBytes: gpu.L1.SectorBytes, L1: levelOf(gpu.L1, 1, distance)}
}

// kernelProfile is the phase-one result for one kernel. Its static memory
// instructions are interned into dense ids in first-touch order; the
// L2-bound remainder of the kernel's stream is kept in order at 12 bytes
// an access.
type kernelProfile struct {
	pcs      []uint64 // id -> PC
	l1Hits   []uint64 // id -> reads its sectors serviced from the per-SM L1s
	sectors  []uint64 // L2-bound stream: sector addresses,
	ops      []uint32 // and beside each its instruction's id<<1 | write
	accesses uint64
}

// L1Filtered is the phase-one result for one application: per kernel, the
// L1 hits of every static instruction, the ordered accesses that escaped
// the L1s, and the facts of every memory instruction. It is immutable, so
// any number of ReplayL2 calls, concurrent ones included, may share it.
type L1Filtered struct {
	kernels     []kernelProfile
	facts       [][]Fact // by kernel, then MemIndex
	sectorBytes int
}

// Bytes returns the memory the result retains, for a memo's byte bound.
func (f *L1Filtered) Bytes() int {
	n := 0
	for i := range f.kernels {
		kp := &f.kernels[i]
		n += 16*len(kp.pcs) + 12*len(kp.sectors) + factBytes*len(f.facts[i])
	}
	return n
}

// factBytes is the size of a Fact.
const factBytes = 8

// FactsBytes returns the memory p's fact rows retain. p shares them with
// the phase-one result it was replayed from, whose Bytes counts them too.
func (p *Profile) FactsBytes() int {
	n := 0
	for _, rows := range p.Facts {
		n += factBytes * len(rows)
	}
	return n
}

// kernelWalk is one worker's scratch for phase one, reused from kernel to
// kernel and, through walks, from call to call, so a walk allocates only
// what its result retains.
type kernelWalk struct {
	g        L1Geometry
	l1       []levelModel
	live     []bool            // by SM: l1 was reset in this kernel
	ids      map[uint64]uint32 // PC -> id
	coalesce []uint64
	sectors  []uint64
	ops      []uint32
}

// kernel runs k's slice of the block-interleaved sector-access stream
// through fresh per-SM L1s: blocks are assigned round-robin to SMs
// (mirroring the Block Scheduler), warps within a block interleave
// instruction by instruction (the round-robin approximation of concurrent
// execution), and per-lane addresses are coalesced exactly as the LD/ST
// unit would. An SM's L1 is reset on its first read in the kernel. The L1s
// are write-through no-allocate: stores are never offered to them and always
// propagate to the L2. Every memory instruction's Fact is recorded at its
// MemIndex on the way: a global one's static id and sector count, a shared
// one's bank-conflict degree.
func (kw *kernelWalk) kernel(k *trace.Kernel) (kernelProfile, []Fact) {
	var kp kernelProfile
	clear(kw.live)
	clear(kw.ids)
	// An instruction sends at most one access per lane address to the L2:
	// size the scratch for that before walking, so the walk never grows it.
	// The fact rows run to the largest MemIndex, which in a sampled kernel
	// is not its memory-instruction count.
	bound, rows := 0, 0
	for bi := range k.Blocks {
		for _, w := range k.Blocks[bi].Warps {
			for i := range w {
				if w[i].Op.IsMem() {
					rows = max(rows, int(w[i].MemIndex)+1)
					if w[i].Op.IsGlobalMem() {
						bound += w[i].ActiveLanes()
					}
				}
			}
		}
	}
	if cap(kw.sectors) < bound {
		kw.sectors, kw.ops = make([]uint64, 0, bound), make([]uint32, 0, bound)
	}
	sectors, ops := kw.sectors[:0], kw.ops[:0]
	facts := make([]Fact, rows)
	var lanes [trace.WarpSize]uint64
	for bi := range k.Blocks {
		sm := bi % kw.g.SMs
		l1 := &kw.l1[sm]
		warps := k.Blocks[bi].Warps
		maxLen := 0
		for _, w := range warps {
			if len(w) > maxLen {
				maxLen = len(w)
			}
		}
		for i := 0; i < maxLen; i++ {
			for _, w := range warps {
				if i >= len(w) || !w[i].Op.IsMem() {
					continue
				}
				in := &w[i]
				addrs := k.Store.Lanes(in, &lanes)
				if in.Op.IsSharedMem() {
					facts[in.MemIndex].N = uint32(smcore.SharedBankConflicts(addrs))
					continue
				}
				// A valid trace gives every memory instruction a lane, so
				// every global one coalesces to a sector or more and has an id.
				kw.coalesce = smcore.CoalesceInto(kw.coalesce, addrs, kw.g.CoalesceBytes)
				id, ok := kw.ids[in.PC]
				if !ok {
					id = uint32(len(kp.pcs))
					kw.ids[in.PC] = id
					kp.pcs = append(kp.pcs, in.PC)
					kp.l1Hits = append(kp.l1Hits, 0)
				}
				facts[in.MemIndex] = Fact{ID: id, N: uint32(len(kw.coalesce))}
				write := in.Op == trace.OpStoreGlobal
				op := id << 1
				if write {
					op |= 1
				}
				kp.accesses += uint64(len(kw.coalesce))
				if !write && !kw.live[sm] {
					l1.reset(kw.g.L1)
					kw.live[sm] = true
				}
				for _, s := range kw.coalesce {
					if !write && l1.hit(s, false) {
						kp.l1Hits[id]++
						continue
					}
					sectors = append(sectors, s)
					ops = append(ops, op)
				}
			}
		}
	}
	kw.sectors, kw.ops = sectors, ops
	// Retain exact-length copies: the scratch keeps its grown capacity for
	// the next kernel, the result carries no slack.
	kp.sectors = append([]uint64(nil), sectors...)
	kp.ops = append([]uint32(nil), ops...)
	return kp, facts
}

// walks holds phase-one scratch between FilterL1 calls: stream buffers
// sized for the largest kernel walked, the PC map and per-SM L1 models, so
// filtering trace after trace does not rebuild them.
var walks sync.Pool

// takeWalk returns a walk for geometry g, pooled if one is spare.
func takeWalk(g L1Geometry) *kernelWalk {
	kw, _ := walks.Get().(*kernelWalk)
	if kw == nil {
		kw = &kernelWalk{ids: make(map[uint64]uint32)}
	}
	if cap(kw.l1) < g.SMs {
		kw.l1, kw.live = make([]levelModel, g.SMs), make([]bool, g.SMs)
	}
	kw.g, kw.l1, kw.live = g, kw.l1[:g.SMs], kw.live[:g.SMs]
	return kw
}

// FilterL1 runs phase one — the per-kernel L1 filtering — on a worker pool
// bounded by GOMAXPROCS. L1s are invalidated at kernel boundaries, exactly
// as the timing simulators model the non-coherent L1 flush of real GPUs, so
// kernels are L1-independent. A kernel whose walk panics panics FilterL1 on
// the caller's goroutine, where a worker's would end the process.
func FilterL1(app *trace.App, g L1Geometry) *L1Filtered {
	f := &L1Filtered{
		kernels:     make([]kernelProfile, len(app.Kernels)),
		facts:       make([][]Fact, len(app.Kernels)),
		sectorBytes: g.CoalesceBytes,
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(app.Kernels) {
		workers = len(app.Kernels)
	}
	if workers <= 1 {
		kw := takeWalk(g)
		defer walks.Put(kw)
		for ki, k := range app.Kernels {
			f.kernels[ki], f.facts[ki] = kw.kernel(k)
		}
		return f
	}
	next := make(chan int)
	var wg sync.WaitGroup
	panics := make([]any, workers)
	for w := range panics {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kw := takeWalk(g)
			defer walks.Put(kw)
			defer func() {
				if panics[w] = recover(); panics[w] != nil {
					for range next { // let the feeder finish
					}
				}
			}()
			for ki := range next {
				f.kernels[ki], f.facts[ki] = kw.kernel(app.Kernels[ki])
			}
		}()
	}
	for ki := range app.Kernels {
		next <- ki
	}
	close(next)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return f
}

// ReplayL2 runs phase two: fold the per-kernel L1 hit counts and replay
// every L2-bound access, in kernel order, through one shared instance of
// l2. Because counter addition commutes and the L2 sees the same access
// sequence a serial run produces, the profile is byte-identical to the
// serial one. The profile shares f's facts.
func (f *L1Filtered) ReplayL2(l2 Level) *Profile {
	model := l2Spares.Get().(*levelModel)
	defer l2Spares.Put(model)
	model.reset(l2)
	static := 0
	for i := range f.kernels {
		static += len(f.kernels[i].pcs)
	}
	p := &Profile{
		PerPC:       make(map[Key]Rates, static),
		ByID:        make([][]Rates, len(f.kernels)),
		Facts:       f.facts,
		SectorBytes: f.sectorBytes,
	}
	byID := make([]Rates, static) // every kernel's ByID, end to end
	var agg, aggReads counts
	var per []counts // by id, reused from kernel to kernel
	for ki := range f.kernels {
		kp := &f.kernels[ki]
		p.Accesses += kp.accesses
		per = slices.Grow(per[:0], len(kp.pcs))[:len(kp.pcs)]
		clear(per)
		for id, n := range kp.l1Hits {
			// L1 hits are always reads: the write-through no-allocate L1
			// never absorbs stores.
			per[id].l1 = n
			agg.l1 += n
			aggReads.l1 += n
		}
		for i, s := range kp.sectors {
			c, write := &per[kp.ops[i]>>1], kp.ops[i]&1 != 0
			if model.hit(s, write) {
				c.l2++
				agg.l2++
				if !write {
					aggReads.l2++
				}
			} else {
				c.dram++
				agg.dram++
				if !write {
					aggReads.dram++
				}
			}
		}
		for id, c := range per {
			r := c.rates()
			p.PerPC[Key{ki, kp.pcs[id]}] = r
			byID[id] = r
		}
		p.ByID[ki], byID = byID[:len(per):len(per)], byID[len(per):]
	}
	p.Default, p.DefaultReads = agg.rates(), aggReads.rates()
	return p
}

// ProfileApp extracts hit rates with functional sectored caches: one L1
// per SM and one cache with the full L2 capacity, both using the
// configured geometry and replacement policy. It is the unmemoised
// composition of the two phases.
func ProfileApp(app *trace.App, gpu config.GPU) *Profile {
	return FilterL1(app, L1GeometryOf(app, gpu, false)).ReplayL2(L2LevelOf(gpu, false))
}

// ProfileAppReuseDistance extracts hit rates from LRU stack distances: an
// access hits a cache when the number of distinct sectors touched since
// its previous access is smaller than the cache's sector capacity. L1
// distances are computed per SM; accesses that exceed the L1 capacity feed
// the global L2 distance stream.
func ProfileAppReuseDistance(app *trace.App, gpu config.GPU) *Profile {
	return FilterL1(app, L1GeometryOf(app, gpu, true)).ReplayL2(L2LevelOf(gpu, true))
}

// distanceTracker computes LRU stack distances with the classic
// Fenwick-tree algorithm: O(log n) per access.
type distanceTracker struct {
	last map[uint64]int // sector -> time of most recent access
	bit  []uint64       // Fenwick tree over times; 1 marks a most-recent access
	time int
}

const infiniteDistance = ^uint64(0)

func newDistanceTracker() *distanceTracker {
	return &distanceTracker{last: make(map[uint64]int), bit: make([]uint64, 1)}
}

// reset makes d the tracker newDistanceTracker returns, keeping its map's
// and tree's memory.
func (d *distanceTracker) reset() {
	clear(d.last)
	d.bit = d.bit[:1]
	d.time = 0
}

// access returns the stack distance of this access (number of distinct
// sectors touched since the previous access to the same sector), or
// infiniteDistance for a cold access.
func (d *distanceTracker) access(sector uint64) uint64 {
	d.time++
	d.grow(d.time)
	dist := infiniteDistance
	if prev, ok := d.last[sector]; ok {
		// Count distinct sectors accessed in (prev, now).
		dist = d.prefix(d.time-1) - d.prefix(prev)
		d.update(prev, ^uint64(0)) // remove the stale most-recent mark (-1)
	}
	d.last[sector] = d.time
	d.update(d.time, 1)
	return dist
}

func (d *distanceTracker) grow(n int) {
	// Appending position i to a Fenwick tree must initialize its node to
	// the sum of the range it covers, (i-lowbit(i), i], which is all
	// historical at append time.
	for len(d.bit) <= n {
		i := len(d.bit)
		low := i & (-i)
		d.bit = append(d.bit, d.prefix(i-1)-d.prefix(i-low))
	}
}

func (d *distanceTracker) update(i int, delta uint64) {
	for ; i < len(d.bit); i += i & (-i) {
		d.bit[i] += delta
	}
}

func (d *distanceTracker) prefix(i int) uint64 {
	var s uint64
	for ; i > 0; i -= i & (-i) {
		s += d.bit[i]
	}
	return s
}
