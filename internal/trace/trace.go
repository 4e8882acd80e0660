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
	"math/bits"
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
	// Stride is the spacing of a strided instruction's lane addresses (see
	// Addrs); it is 0 for every other instruction.
	Stride int32
	// Addrs holds a memory instruction's byte addresses, one per active
	// lane in ascending lane order, in one of two forms. Listed, it holds
	// every lane's address. Strided (len(Addrs) == 1 < ActiveLanes()), it
	// holds lane 0's, and active lane i is at Addrs[0] + i·Stride in
	// wrapping arithmetic; a Stride of 0 is a broadcast. Lanes returns
	// either form listed, and Arena.SetLanes picks the form. Addrs is empty
	// for all other opcode classes.
	Addrs []uint64
}

// ActiveLanes returns the number of active lanes.
func (in Inst) ActiveLanes() int { return bits.OnesCount32(in.ActiveMask) }

// strided reports whether in keeps its lane addresses as Addrs[0] and
// Stride.
func (in *Inst) strided() bool { return len(in.Addrs) == 1 && in.ActiveLanes() > 1 }

// Lanes returns in's lane addresses, one per active lane in ascending lane
// order. A strided instruction's are expanded into buf; a listed one's are
// Addrs itself. Either way the caller must not modify them.
func (in *Inst) Lanes(buf *[WarpSize]uint64) []uint64 {
	if !in.strided() {
		return in.Addrs
	}
	n := in.ActiveLanes()
	a, s := in.Addrs[0], uint64(int64(in.Stride))
	for i := range buf[:n] {
		buf[i] = a
		a += s
	}
	return buf[:n]
}

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
// resources each block consumes (which bound SM occupancy).
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
			if err := validateWarp(w, &next); err != nil {
				return fmt.Errorf("trace: kernel %s block %d warp %d: %w", k.Name, bi, wi, err)
			}
		}
	}
	return nil
}

func validateWarp(w WarpTrace, next *uint32) error {
	if len(w) == 0 {
		return fmt.Errorf("empty warp trace")
	}
	var lanes [WarpSize]uint64
	for i := range w {
		in := &w[i]
		if in.Op >= numOpClasses {
			return fmt.Errorf("inst %d: invalid opcode class %d", i, in.Op)
		}
		if in.ActiveMask == 0 && in.Op != OpExit && in.Op != OpBarrier {
			return fmt.Errorf("inst %d (%v): zero active mask", i, in.Op)
		}
		if in.Stride != 0 && !in.strided() {
			return fmt.Errorf("inst %d (%v): stride %d with %d addresses listed", i, in.Op, in.Stride, len(in.Addrs))
		}
		if in.Op.IsMem() {
			if got, want := len(in.Lanes(&lanes)), in.ActiveLanes(); got != want {
				return fmt.Errorf("inst %d (%v): %d addresses for %d active lanes", i, in.Op, got, want)
			}
			if in.MemIndex != *next {
				return fmt.Errorf("inst %d (%v): MemIndex %d, want %d: memory instructions are numbered 0, 1, ... "+
					"in block, warp, instruction order (Kernel.NumberMem)", i, in.Op, in.MemIndex, *next)
			}
			*next++
		} else if len(in.Addrs) != 0 {
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

// App is a traced application: an ordered list of kernel launches.
type App struct {
	// Name is the application name as used in the paper's figures
	// (e.g. "BFS", "NW", "GRU").
	Name string
	// Suite is the benchmark suite the application comes from.
	Suite string
	// Kernels are executed back to back in order.
	Kernels []*Kernel
}

// Insts returns the total dynamic instruction count of the application.
func (a *App) Insts() int {
	n := 0
	for _, k := range a.Kernels {
		n += k.Insts()
	}
	return n
}

// Validate checks the application and all its kernels.
func (a *App) Validate() error {
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
