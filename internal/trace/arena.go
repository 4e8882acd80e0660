package trace

import "swiftsim/internal/mem"

// Arena carves one kernel's warp instruction streams and lane addresses
// from two chunked backing stores (mem.Slab), so that building a kernel
// costs a few allocations per chunk instead of one per instruction. Both
// trace producers use it: the workload generators and the .sgt reader.
//
// Every slice it returns has its capacity clamped to its length, so an
// append to an Inst.Addrs or a WarpTrace reallocates instead of writing
// into a neighbour's storage: a built trace stays as immutable as one made
// of separate allocations.
//
// The zero Arena is ready to use; it makes each store on first use. An
// Arena is not safe for concurrent use.
type Arena struct {
	insts *mem.Slab[Inst]
	addrs *mem.Slab[uint64]
}

// Chunk sizes in elements: 48 KiB of instructions, 64 KiB of addresses.
// A take that the current chunk's tail cannot hold abandons that tail,
// which is shorter than the take (a warp, or one instruction's lanes), and
// a kernel's last chunks are at most these sizes.
const (
	instChunk = 1024
	addrChunk = 8192
)

// Addrs returns n zeroed lane addresses for one memory instruction's
// Inst.Addrs.
func (a *Arena) Addrs(n int) []uint64 {
	if a.addrs == nil {
		a.addrs = mem.NewSlab[uint64](addrChunk)
	}
	return a.addrs.Take(n)
}

// Warp returns a copy of insts carved from the arena. A producer builds
// each warp in a scratch slice it reuses and keeps only this exact-length
// copy.
func (a *Arena) Warp(insts []Inst) WarpTrace {
	if a.insts == nil {
		a.insts = mem.NewSlab[Inst](instChunk)
	}
	w := a.insts.Take(len(insts))
	copy(w, insts)
	return w
}
