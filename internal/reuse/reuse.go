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
package reuse

import (
	"runtime"
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

// Profile holds the extracted hit rates for one application.
type Profile struct {
	// PerPC maps each static global-memory instruction to its rates.
	PerPC map[Key]Rates
	// Default is the application-wide aggregate, used for instructions
	// missing from PerPC.
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

// Rates returns the level-of-service distribution for the given
// instruction, falling back to the application aggregate.
func (p *Profile) Rates(kernel int, pc uint64) Rates {
	if r, ok := p.PerPC[Key{kernel, pc}]; ok {
		return r
	}
	return p.Default
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
// tracker. The zero value is unbuilt.
type levelModel struct {
	fn  *cache.Functional
	dt  *distanceTracker
	cap uint64
}

func (l Level) newModel() levelModel {
	if l.Distance {
		return levelModel{dt: newDistanceTracker(), cap: l.Capacity}
	}
	return levelModel{fn: cache.NewFunctional(config.Cache{
		Sets: l.Sets, Ways: l.Ways, LineBytes: l.LineBytes, SectorBytes: l.SectorBytes,
		Replacement: l.Replacement,
	})}
}

func (m *levelModel) built() bool { return m.fn != nil || m.dt != nil }

// hit runs one sector access through the model: a functional-cache lookup
// (misses install), or a stack distance below the capacity.
func (m *levelModel) hit(sector uint64, write bool) bool {
	if m.dt != nil {
		return m.dt.access(sector) < m.cap
	}
	return m.fn.Access(sector, write)
}

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
// L1 hits of every static instruction and the ordered accesses that escaped
// the L1s. It is immutable, so any number of ReplayL2 calls, concurrent
// ones included, may share it.
type L1Filtered struct {
	kernels []kernelProfile
}

// Bytes returns the memory the result retains, for a memo's byte bound.
func (f *L1Filtered) Bytes() int {
	n := 0
	for i := range f.kernels {
		kp := &f.kernels[i]
		n += 16*len(kp.pcs) + 12*len(kp.sectors)
	}
	return n
}

// kernelWalk is one worker's scratch for phase one, reused from kernel to
// kernel so a walk allocates only what its result retains.
type kernelWalk struct {
	g        L1Geometry
	l1       []levelModel
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
// unit would. An SM's L1 is built on its first access. The L1s are
// write-through no-allocate: stores are never offered to them and always
// propagate to the L2.
func (kw *kernelWalk) kernel(k *trace.Kernel) kernelProfile {
	var kp kernelProfile
	clear(kw.l1)
	clear(kw.ids)
	sectors, ops := kw.sectors[:0], kw.ops[:0]
	for bi := range k.Blocks {
		l1 := &kw.l1[bi%kw.g.SMs]
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
				in := &w[i]
				kw.coalesce = smcore.CoalesceInto(kw.coalesce, in.Addrs, kw.g.CoalesceBytes)
				if len(kw.coalesce) == 0 {
					continue
				}
				id, ok := kw.ids[in.PC]
				if !ok {
					id = uint32(len(kp.pcs))
					kw.ids[in.PC] = id
					kp.pcs = append(kp.pcs, in.PC)
					kp.l1Hits = append(kp.l1Hits, 0)
				}
				write := in.Op == trace.OpStoreGlobal
				op := id << 1
				if write {
					op |= 1
				}
				kp.accesses += uint64(len(kw.coalesce))
				if !write && !l1.built() {
					*l1 = kw.g.L1.newModel()
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
	return kp
}

// FilterL1 runs phase one — the per-kernel L1 filtering — on a worker pool
// bounded by GOMAXPROCS. L1s are invalidated at kernel boundaries, exactly
// as the timing simulators model the non-coherent L1 flush of real GPUs, so
// kernels are L1-independent.
func FilterL1(app *trace.App, g L1Geometry) *L1Filtered {
	f := &L1Filtered{kernels: make([]kernelProfile, len(app.Kernels))}
	newWalk := func() *kernelWalk {
		return &kernelWalk{g: g, l1: make([]levelModel, g.SMs), ids: make(map[uint64]uint32)}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(app.Kernels) {
		workers = len(app.Kernels)
	}
	if workers <= 1 {
		kw := newWalk()
		for ki, k := range app.Kernels {
			f.kernels[ki] = kw.kernel(k)
		}
		return f
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kw := newWalk()
			for ki := range next {
				f.kernels[ki] = kw.kernel(app.Kernels[ki])
			}
		}()
	}
	for ki := range app.Kernels {
		next <- ki
	}
	close(next)
	wg.Wait()
	return f
}

// ReplayL2 runs phase two: fold the per-kernel L1 hit counts and replay
// every L2-bound access, in kernel order, through one shared instance of
// l2. Because counter addition commutes and the L2 sees the same access
// sequence a serial run produces, the profile is byte-identical to the
// serial one.
func (f *L1Filtered) ReplayL2(l2 Level) *Profile {
	model := l2.newModel()
	static := 0
	for i := range f.kernels {
		static += len(f.kernels[i].pcs)
	}
	p := &Profile{PerPC: make(map[Key]Rates, static)}
	var agg, aggReads counts
	var per []counts // by id, reused from kernel to kernel
	for ki := range f.kernels {
		kp := &f.kernels[ki]
		p.Accesses += kp.accesses
		per = append(per[:0], make([]counts, len(kp.pcs))...)
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
			p.PerPC[Key{ki, kp.pcs[id]}] = c.rates()
		}
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

// Distinct returns the number of distinct sectors seen (for tests).
func (d *distanceTracker) Distinct() int { return len(d.last) }
