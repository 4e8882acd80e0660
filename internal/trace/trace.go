// Package trace defines Swift-Sim's architecture-independent application
// trace representation and its text serialization (the ".sgt" format).
//
// The paper's frontend captures traces with an NVBit extension on real
// NVIDIA hardware and stresses that the traces are independent of the GPU
// being simulated. This package is the equivalent substrate: traces carry
// only what the performance model needs — per-warp instruction streams with
// register dependencies, opcode classes, active masks, and per-thread memory
// addresses for load/store instructions.
package trace

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// OpClass classifies an instruction by the execution unit that retires it.
type OpClass uint8

const (
	// OpInt executes on the INT units (integer ALU, address arithmetic).
	OpInt OpClass = iota
	// OpSP executes on the single-precision FP32 units.
	OpSP
	// OpDP executes on the double-precision FP64 units.
	OpDP
	// OpSFU executes on the special-function units (transcendentals).
	OpSFU
	// OpLoadGlobal is a load from global memory through L1/L2/DRAM.
	OpLoadGlobal
	// OpStoreGlobal is a store to global memory (L1 write-through).
	OpStoreGlobal
	// OpLoadShared is a load from per-SM shared memory.
	OpLoadShared
	// OpStoreShared is a store to per-SM shared memory.
	OpStoreShared
	// OpBarrier is a block-wide synchronization (__syncthreads).
	OpBarrier
	// OpExit terminates the warp.
	OpExit

	numOpClasses
)

var opNames = [numOpClasses]string{
	"INT", "SP", "DP", "SFU", "LDG", "STG", "LDS", "STS", "BAR", "EXIT",
}

// String returns the trace-file mnemonic of op.
func (op OpClass) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("OpClass(%d)", uint8(op))
}

// ParseOpClass converts a trace-file mnemonic into an OpClass.
func ParseOpClass(s string) (OpClass, error) {
	if op, ok := opClassOf(s); ok {
		return op, nil
	}
	return 0, fmt.Errorf("trace: unknown opcode class %q", s)
}

// opClassOf looks a mnemonic up without converting a []byte to a string.
func opClassOf[T string | []byte](s T) (OpClass, bool) {
	for i, n := range opNames {
		if string(s) == n {
			return OpClass(i), true
		}
	}
	return 0, false
}

// IsGlobalMem reports whether op accesses global memory.
func (op OpClass) IsGlobalMem() bool { return op == OpLoadGlobal || op == OpStoreGlobal }

// IsSharedMem reports whether op accesses shared memory.
func (op OpClass) IsSharedMem() bool { return op == OpLoadShared || op == OpStoreShared }

// IsMem reports whether op is handled by the LD/ST unit.
func (op OpClass) IsMem() bool { return op.IsGlobalMem() || op.IsSharedMem() }

// IsALU reports whether op executes on an arithmetic unit
// (INT/SP/DP/SFU).
func (op OpClass) IsALU() bool { return op <= OpSFU }

// Reg identifies an architectural register within a warp. Register 0 is
// reserved to mean "none" (no destination / unused source slot).
type Reg uint8

// RegNone is the absent-register sentinel.
const RegNone Reg = 0

// Inst is one warp-level instruction.
type Inst struct {
	// PC is the program counter; instructions at the same PC across
	// warps are "the same instruction" for the per-PC analytical memory
	// model (Eq. 1 of the paper).
	PC uint64
	// Op is the opcode class.
	Op OpClass
	// Dst is the destination register (RegNone if none).
	Dst Reg
	// Src holds up to two source registers (RegNone padding).
	Src [2]Reg
	// ActiveMask is the per-lane execution mask (bit i = lane i active).
	// Warp size is fixed at 32 lanes.
	ActiveMask uint32
	// MemIndex is a memory instruction's ordinal among its kernel's memory
	// instructions, counted from 0 in block → warp → instruction order
	// (WarpTrace.NumberMem); Validate checks it. The hit-rate profiler
	// records what the analytical memory model needs of each dynamic memory
	// instruction in a row at this index. It is derived from the trace's
	// structure, so neither digest hashes it (ContentHash folds it in only
	// where it departs from that numbering, as in a sampled kernel) and the
	// .sgt format does not carry it.
	MemIndex uint32
	// Stride is the spacing of a strided instruction's lane addresses, and
	// listedStride for a listed one (see lane); it is 0 for every other
	// instruction.
	Stride int32
	// lane is a memory instruction's lane word, which holds its byte
	// addresses, one per active lane in ascending lane order, in one of
	// three forms. One lane: the word is that lane's address. Strided
	// (ActiveLanes() > 1, Stride not listedStride): it is lane 0's, and
	// active lane i is at lane + i·Stride in wrapping arithmetic; a Stride
	// of 0 is a broadcast. Listed (Stride == listedStride): it is the index
	// of the instruction's run of ActiveLanes() addresses in its kernel's
	// LaneStore. Arena.SetLanes picks the form, and LaneStore.Lanes returns
	// any of them listed. It is 0 for all other opcode classes.
	//
	// Inst holds no Go pointer, so an app's instruction chunks, most of
	// what it holds, are memory the collector never scans.
	lane uint64
}

// listedStride is the Stride of a listed instruction. SetLanes keeps lanes
// evenly spaced by it listed, so it is no stride of a strided one.
const listedStride = math.MinInt32

// ActiveLanes returns the number of active lanes.
func (in Inst) ActiveLanes() int { return bits.OnesCount32(in.ActiveMask) }

// Listed reports whether in's lane addresses are listed in its kernel's
// LaneStore rather than held in the instruction.
func (in *Inst) Listed() bool { return in.Stride == listedStride }

// Dim3 is a CUDA-style three-dimensional extent.
type Dim3 struct {
	X, Y, Z int
}

// Count returns the total number of elements in the extent.
func (d Dim3) Count() int { return d.X * d.Y * d.Z }

// String renders the extent as "x,y,z".
func (d Dim3) String() string { return fmt.Sprintf("%d,%d,%d", d.X, d.Y, d.Z) }

// WarpTrace is the instruction stream of a single warp.
type WarpTrace []Inst

// NumberMem sets the MemIndex of w's memory instructions to next, next+1,
// ... in order and returns the index after the last. A builder calls it on
// each warp as it completes, in block → warp order, starting every kernel
// at 0.
func (w WarpTrace) NumberMem(next uint32) uint32 {
	for i := range w {
		if w[i].Op.IsMem() {
			w[i].MemIndex = next
			next++
		}
	}
	return next
}

// BlockTrace holds the warp traces of one thread block.
type BlockTrace struct {
	// Warps is indexed by the warp's index within the block.
	Warps []WarpTrace
}

// Insts returns the total instruction count in the block.
func (b BlockTrace) Insts() int {
	n := 0
	for _, w := range b.Warps {
		n += len(w)
	}
	return n
}

// Kernel is one kernel launch: a grid of thread blocks plus the static
// resources each block consumes (which bound SM occupancy). A kernel is
// immutable once built, and keeps its LaunchKey once computed. It is never
// copied by value (go vet's copylocks check refuses the copy, which would
// carry its original's digest): a changed kernel is built field by field.
type Kernel struct {
	// Name identifies the kernel.
	Name string
	// Grid and Block are the launch dimensions.
	Grid, Block Dim3
	// RegsPerThread is the register footprint of one thread.
	RegsPerThread int
	// SharedMemPerBlock is the static shared-memory footprint of one
	// block in bytes.
	SharedMemPerBlock int
	// Blocks holds one BlockTrace per thread block, in linearized grid
	// order.
	Blocks []BlockTrace
	// Store holds the lanes of the kernel's listed memory instructions: its
	// app's lane store, shared by the app's kernels. It is nil for a kernel
	// with no listed instruction. Every reader gets an instruction's lanes
	// through it (LaneStore.Lanes).
	Store *LaneStore

	key fact[[32]byte] // LaunchKey's digest
}

// WarpSize is the fixed number of threads per warp.
const WarpSize = 32

// NumBlocks returns the number of thread blocks in the launch.
func (k *Kernel) NumBlocks() int { return len(k.Blocks) }

// WarpsPerBlock returns the number of warps per thread block.
func (k *Kernel) WarpsPerBlock() int {
	return (k.Block.Count() + WarpSize - 1) / WarpSize
}

// Insts returns the total dynamic instruction count of the kernel.
func (k *Kernel) Insts() int {
	n := 0
	for i := range k.Blocks {
		n += k.Blocks[i].Insts()
	}
	return n
}

// NumberMem numbers k's memory instructions the way Validate requires, for
// a kernel assembled without numbering its warps as they were built.
func (k *Kernel) NumberMem() {
	var next uint32
	for bi := range k.Blocks {
		for _, w := range k.Blocks[bi].Warps {
			next = w.NumberMem(next)
		}
	}
}

// Validate checks structural invariants of the kernel trace and returns a
// descriptive error for the first violation found.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("trace: kernel with empty name")
	}
	if k.Grid.Count() <= 0 || k.Block.Count() <= 0 {
		return fmt.Errorf("trace: kernel %s: non-positive grid (%v) or block (%v)", k.Name, k.Grid, k.Block)
	}
	if k.Block.Count() > 1024 {
		return fmt.Errorf("trace: kernel %s: block of %d threads exceeds 1024", k.Name, k.Block.Count())
	}
	if len(k.Blocks) != k.Grid.Count() {
		return fmt.Errorf("trace: kernel %s: %d block traces for grid of %d", k.Name, len(k.Blocks), k.Grid.Count())
	}
	if k.RegsPerThread <= 0 {
		return fmt.Errorf("trace: kernel %s: RegsPerThread must be positive, got %d", k.Name, k.RegsPerThread)
	}
	if k.SharedMemPerBlock < 0 {
		return fmt.Errorf("trace: kernel %s: negative SharedMemPerBlock", k.Name)
	}
	wpb := k.WarpsPerBlock()
	var next uint32 // the MemIndex the next memory instruction must carry
	for bi := range k.Blocks {
		b := &k.Blocks[bi]
		if len(b.Warps) != wpb {
			return fmt.Errorf("trace: kernel %s block %d: %d warps, want %d", k.Name, bi, len(b.Warps), wpb)
		}
		for wi, w := range b.Warps {
			if err := validateWarp(w, k.Store, &next); err != nil {
				return fmt.Errorf("trace: kernel %s block %d warp %d: %w", k.Name, bi, wi, err)
			}
		}
	}
	return nil
}

func validateWarp(w WarpTrace, lanes *LaneStore, next *uint32) error {
	if len(w) == 0 {
		return fmt.Errorf("empty warp trace")
	}
	for i := range w {
		in := &w[i]
		if in.Op >= numOpClasses {
			return fmt.Errorf("inst %d: invalid opcode class %d", i, in.Op)
		}
		if in.ActiveMask == 0 && in.Op != OpExit && in.Op != OpBarrier {
			return fmt.Errorf("inst %d (%v): zero active mask", i, in.Op)
		}
		if in.Op.IsMem() {
			if n := in.ActiveLanes(); in.Listed() {
				if !lanes.holds(in.lane, n) {
					return fmt.Errorf("inst %d (%v): its %d listed lanes at %d fall outside the kernel's lane store", i, in.Op, n, in.lane)
				}
			} else if n == 1 && in.Stride != 0 {
				return fmt.Errorf("inst %d (%v): stride %d on one lane", i, in.Op, in.Stride)
			}
			if in.MemIndex != *next {
				return fmt.Errorf("inst %d (%v): MemIndex %d, want %d: memory instructions are numbered 0, 1, ... "+
					"in block, warp, instruction order (Kernel.NumberMem)", i, in.Op, in.MemIndex, *next)
			}
			*next++
		} else if in.lane != 0 || in.Stride != 0 {
			return fmt.Errorf("inst %d (%v): non-memory instruction carries addresses", i, in.Op)
		}
		if in.Op == OpExit && i != len(w)-1 {
			return fmt.Errorf("inst %d: EXIT before end of warp trace", i)
		}
	}
	if last := w[len(w)-1]; last.Op != OpExit {
		return fmt.Errorf("warp trace does not end in EXIT")
	}
	return nil
}

// App is a traced application: an ordered list of kernel launches. An app
// is immutable once built, and keeps its ContentHash and a Validate that
// passed once computed; like a Kernel, it is never copied by value.
type App struct {
	// Name is the application name as used in the paper's figures
	// (e.g. "BFS", "NW", "GRU").
	Name string
	// Suite is the benchmark suite the application comes from.
	Suite string
	// Kernels are executed back to back in order.
	Kernels []*Kernel

	hash  fact[[32]byte] // ContentHash's digest
	valid fact[error]    // Validate's pass
}

// fact is a value computed from the immutable App or Kernel that holds it,
// kept there by the first call whose value keep, if not nil, accepts.
// Concurrent first callers compute it once, and a compute that panics keeps
// nothing, so the next caller computes it again (a sync.Once would count it
// done).
type fact[V any] struct {
	mu   sync.Mutex
	v    V
	kept bool
}

func (f *fact[V]) get(compute func() V, keep func(V) bool) V {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.kept {
		f.v = compute()
		f.kept = keep == nil || keep(f.v)
	}
	return f.v
}

// Insts returns the total dynamic instruction count of the application.
func (a *App) Insts() int {
	n := 0
	for _, k := range a.Kernels {
		n += k.Insts()
	}
	return n
}

// Validate checks the application and all its kernels. A pass is kept on
// the app, so a later call returns nil without walking the app again; a
// failure is not, so an app fixed after it was refused passes. A check that
// panics keeps nothing.
func (a *App) Validate() error { return a.valid.get(a.validate, passed) }

func passed(err error) bool { return err == nil }

func (a *App) validate() error {
	if a.Name == "" {
		return fmt.Errorf("trace: app with empty name")
	}
	if len(a.Kernels) == 0 {
		return fmt.Errorf("trace: app %s has no kernels", a.Name)
	}
	for _, k := range a.Kernels {
		if err := k.Validate(); err != nil {
			return fmt.Errorf("app %s: %w", a.Name, err)
		}
	}
	return nil
}
