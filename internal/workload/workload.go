// Package workload synthesizes application traces for the benchmark suites
// the paper evaluates (Rodinia, Polybench, Mars, Tango, Pannotia).
//
// The paper captures traces from real GPU runs with NVBit; this repository
// has no GPU, so each application is replaced by a generator that
// reproduces the characteristics that drive both simulator accuracy and
// simulation cost: instruction mix, register dependency chains, branch
// divergence (active masks), coalescing behaviour, data reuse (cache
// friendliness), shared-memory tiling and synchronization. Generators are
// deterministic in (scale, seed), so every simulator sees byte-identical
// traces.
package workload

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"swiftsim/internal/memo"
	"swiftsim/internal/trace"
)

// Spec describes one synthesizable application.
type Spec struct {
	// Name is the application name used in the paper's figures.
	Name string
	// Suite is the benchmark suite the application belongs to.
	Suite string
	// Description summarizes the modeled computation pattern.
	Description string
	// MemoryBound marks applications dominated by global-memory traffic
	// (the paper's NW, ADI, SM and GRU fall in this class and show the
	// largest hybrid speedups).
	MemoryBound bool
	// Generate builds the application trace at the given problem scale
	// (1.0 = default size).
	Generate func(scale float64) *trace.App
}

var catalog []Spec

func register(s Spec) {
	catalog = append(catalog, s)
}

// Catalog lists all applications sorted by suite then name.
func Catalog() []Spec {
	out := make([]Spec, len(catalog))
	copy(out, catalog)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Names lists all application names in Catalog order.
func Names() []string {
	specs := Catalog()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// ByName returns the Spec for an application name.
func ByName(name string) (Spec, bool) {
	for _, s := range catalog {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Generators are deterministic in (name, scale), so Generate memoizes its
// results: sweeps and the regression corpus build the same trace under many
// simulator kinds and thread counts, and regeneration is pure recomputation.
// Callers therefore share the returned *trace.App and must treat it as
// immutable (the simulator already does — traces are read-only inputs).
// Concurrent sweep workers requesting one application generate it once, and
// a generator that panics fails only the caller that ran it.
type genKey struct {
	name  string
	scale float64
}

var generated = memo.New[genKey](64, func(*trace.App) int { return 1 })

// Generate builds the named application at the given scale. The returned
// trace is memoized and shared across callers; it must not be mutated.
func Generate(name string, scale float64) (*trace.App, error) {
	s, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("workload: unknown application %q (have %v)", name, Names())
	}
	if scale <= 0 {
		return nil, fmt.Errorf("workload: scale must be positive, got %v", scale)
	}
	return generated.Get(genKey{name, scale}, func(genKey) *trace.App { return s.Generate(scale) }), nil
}

// ---------------------------------------------------------------------------
// Deterministic PRNG (splitmix64) so traces are reproducible.

type rng struct{ s uint64 }

func newRNG(seed uint64) rng { return rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// ---------------------------------------------------------------------------
// Warp-trace builder.

const fullMask = 0xffffffff

// wb builds the warps of one app's kernels. Each warp is emitted into a
// scratch slice the builder reuses, and exit keeps an exact-length copy;
// each memory instruction's lane addresses are written into a scratch of
// one warp's lanes and committed to the app's arena as the instruction is
// emitted, as are the kept copies. The zero wb is ready to build an app's
// first warp.
type wb struct {
	arena trace.Arena
	insts []trace.Inst // the warp being built
	lanes [trace.WarpSize]uint64
	pc    uint64
	regs  uint8 // destination registers handed out in this warp, mod 31
}

// startWarp readies b for the next warp of its kernel.
func (b *wb) startWarp() {
	b.insts = b.insts[:0]
	b.pc, b.regs = 0, 0
}

// nextReg rotates through registers 1..31, creating realistic dependency
// chains without exceeding typical register footprints.
func (b *wb) nextReg() trace.Reg {
	r := trace.Reg(b.regs + 1)
	b.regs = (b.regs + 1) % 31
	return r
}

func (b *wb) emit(in trace.Inst) {
	in.PC = b.pc
	b.pc += 8
	b.insts = append(b.insts, in)
}

// loop emits body n times with the PCs of every iteration identical, the
// way dynamic NVBit traces repeat a loop body's static instructions. The
// per-PC analytical memory model averages hit rates across iterations of
// the same static instruction exactly as in the paper.
func (b *wb) loop(n int, body func(i int)) {
	start := b.pc
	end := start
	for i := 0; i < n; i++ {
		b.pc = start
		body(i)
		if i == 0 {
			end = b.pc
		}
	}
	b.pc = end
}

// alu emits an arithmetic instruction reading srcs into a fresh register.
// PCs advance uniformly, so warps that execute the same static code share
// PCs for the same instruction — which the per-PC analytical memory model
// relies on.
func (b *wb) alu(op trace.OpClass, srcs ...trace.Reg) trace.Reg {
	dst := b.nextReg()
	var s [2]trace.Reg
	copy(s[:], srcs)
	b.emit(trace.Inst{Op: op, Dst: dst, Src: s, ActiveMask: fullMask})
	return dst
}

func (b *wb) aluMasked(op trace.OpClass, mask uint32, srcs ...trace.Reg) trace.Reg {
	dst := b.nextReg()
	var s [2]trace.Reg
	copy(s[:], srcs)
	b.emit(trace.Inst{Op: op, Dst: dst, Src: s, ActiveMask: mask})
	return dst
}

// mem emits a memory instruction whose active lanes access addrs.
func (b *wb) mem(in trace.Inst, addrs []uint64) {
	b.arena.SetLanes(&in, addrs)
	b.emit(in)
}

func (b *wb) load(addrs []uint64, addrReg trace.Reg) trace.Reg {
	dst := b.nextReg()
	b.mem(trace.Inst{Op: trace.OpLoadGlobal, Dst: dst, Src: [2]trace.Reg{addrReg}, ActiveMask: fullMask}, addrs)
	return dst
}

func (b *wb) loadMasked(mask uint32, addrs []uint64, addrReg trace.Reg) trace.Reg {
	dst := b.nextReg()
	b.mem(trace.Inst{Op: trace.OpLoadGlobal, Dst: dst, Src: [2]trace.Reg{addrReg}, ActiveMask: mask}, addrs)
	return dst
}

func (b *wb) store(addrs []uint64, data trace.Reg) {
	b.mem(trace.Inst{Op: trace.OpStoreGlobal, Src: [2]trace.Reg{data}, ActiveMask: fullMask}, addrs)
}

func (b *wb) storeMasked(mask uint32, addrs []uint64, data trace.Reg) {
	b.mem(trace.Inst{Op: trace.OpStoreGlobal, Src: [2]trace.Reg{data}, ActiveMask: mask}, addrs)
}

func (b *wb) shLoad(addrs []uint64) trace.Reg {
	dst := b.nextReg()
	b.mem(trace.Inst{Op: trace.OpLoadShared, Dst: dst, ActiveMask: fullMask}, addrs)
	return dst
}

func (b *wb) shStore(addrs []uint64, data trace.Reg) {
	b.mem(trace.Inst{Op: trace.OpStoreShared, Src: [2]trace.Reg{data}, ActiveMask: fullMask}, addrs)
}

func (b *wb) barrier() {
	b.emit(trace.Inst{Op: trace.OpBarrier, ActiveMask: fullMask})
}

func (b *wb) exit() trace.WarpTrace {
	b.emit(trace.Inst{Op: trace.OpExit, ActiveMask: fullMask})
	return b.arena.Warp(b.insts)
}

// ---------------------------------------------------------------------------
// Address-pattern helpers. Each writes exactly one address per active lane
// into the builder's lane scratch and returns it, for the memory
// instruction it is passed to: the next helper call overwrites it.

// coalesced returns perfectly coalesced lane addresses: lane i accesses
// base + i*width (width 4 = dense fp32 array).
func (b *wb) coalesced(base uint64, width uint64) []uint64 {
	a := b.lanes[:]
	for i := range a {
		a[i] = base + uint64(i)*width
	}
	return a
}

// coalescedMasked is coalesced for the active lanes of mask only.
func (b *wb) coalescedMasked(mask uint32, base uint64, width uint64) []uint64 {
	a := b.lanes[:0:bits.OnesCount32(mask)]
	for i := 0; i < trace.WarpSize; i++ {
		if mask&(1<<uint(i)) != 0 {
			a = append(a, base+uint64(i)*width)
		}
	}
	return a
}

// strided returns lane addresses with a large stride (uncoalesced,
// column-major style): lane i accesses base + i*stride.
func (b *wb) strided(base, stride uint64) []uint64 {
	a := b.lanes[:]
	for i := range a {
		a[i] = base + uint64(i)*stride
	}
	return a
}

// gather returns irregular per-lane addresses drawn from a region
// [base, base+size), 4-byte aligned — the access pattern of graph
// workloads.
func (b *wb) gather(r *rng, base, size uint64) []uint64 {
	a := b.lanes[:]
	for i := range a {
		a[i] = base + (r.next()%(size/4))*4
	}
	return a
}

// gatherMasked is gather over the active lanes only.
func (b *wb) gatherMasked(r *rng, mask uint32, base, size uint64) []uint64 {
	a := b.lanes[:0:bits.OnesCount32(mask)]
	for i := 0; i < trace.WarpSize; i++ {
		if mask&(1<<uint(i)) != 0 {
			a = append(a, base+(r.next()%(size/4))*4)
		}
	}
	return a
}

// broadcast returns the same address for every lane (fully merged by the
// coalescer into one sector).
func (b *wb) broadcast(base uint64) []uint64 {
	a := b.lanes[:]
	for i := range a {
		a[i] = base
	}
	return a
}

// shBank returns shared-memory addresses spread across banks
// (conflict-free when stride is 4).
func (b *wb) shBank(base uint64, stride uint64) []uint64 {
	a := b.lanes[:]
	for i := range a {
		a[i] = base + uint64(i)*stride
	}
	return a
}

// divergentMask derives a deterministic partial mask with roughly frac of
// the lanes active (at least one).
func divergentMask(r *rng, frac float64) uint32 {
	var m uint32
	for i := 0; i < trace.WarpSize; i++ {
		if r.float() < frac {
			m |= 1 << uint(i)
		}
	}
	if m == 0 {
		m = 1
	}
	return m
}

// scaleDim scales n by s, with a floor of lo.
func scaleDim(n int, s float64, lo int) int {
	v := int(math.Round(float64(n) * s))
	if v < lo {
		return lo
	}
	return v
}

// kernel1D assembles a kernel from a per-(block, warp) builder function,
// numbering each warp's memory instructions as soon as it is built. An app
// builds all its kernels with one builder, and so carves them from one
// arena.
func kernel1D(b *wb, name string, blocks, threadsPerBlock, regs, shmem int,
	build func(b *wb, block, warp int)) *trace.Kernel {
	k := &trace.Kernel{
		Name:              name,
		Grid:              trace.Dim3{X: blocks, Y: 1, Z: 1},
		Block:             trace.Dim3{X: threadsPerBlock, Y: 1, Z: 1},
		RegsPerThread:     regs,
		SharedMemPerBlock: shmem,
	}
	wpb := k.WarpsPerBlock()
	k.Blocks = make([]trace.BlockTrace, blocks)
	var next uint32
	for bi := 0; bi < blocks; bi++ {
		warps := make([]trace.WarpTrace, wpb)
		for wi := 0; wi < wpb; wi++ {
			b.startWarp()
			build(b, bi, wi)
			warps[wi] = b.exit()
			next = warps[wi].NumberMem(next)
		}
		k.Blocks[bi].Warps = warps
	}
	k.Store = b.arena.Store()
	return k
}

// Array base addresses used by the generators: distinct 256 MiB regions so
// arrays never alias.
const (
	arrA = 0x1000_0000
	arrB = 0x2000_0000
	arrC = 0x3000_0000
	arrD = 0x4000_0000
	arrE = 0x5000_0000
)
