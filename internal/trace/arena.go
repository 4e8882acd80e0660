package trace

import "swiftsim/internal/mem"

// Arena carves one app's warp instruction streams and lane addresses, all
// its kernels', from two chunked backing stores (mem.Slab), so that
// building a trace costs a few allocations per chunk instead of one per
// instruction, and keeps an evenly spaced instruction's lanes as one
// address and a stride. Both trace producers use one per app: the workload
// generators and the .sgt reader. An app's only partly filled chunks are
// its last of each store.
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
// an app's last chunks are at most these sizes.
const (
	instChunk = 1024
	addrChunk = 8192
)

// SetLanes gives in the lane addresses lanes, one per active lane in
// ascending lane order, copied into the arena. When there are as many as
// in has active lanes, at least two, and they are evenly spaced by a stride
// that fits an int32, in keeps them strided: lanes[0] and the stride (see
// Inst.Addrs). Otherwise they stay listed, as they are for a scatter.
func (a *Arena) SetLanes(in *Inst, lanes []uint64) {
	if a.addrs == nil {
		a.addrs = mem.NewSlab[uint64](addrChunk)
	}
	in.Stride = 0
	if s, ok := strideOf(lanes); ok && len(lanes) == in.ActiveLanes() {
		in.Stride = s
		lanes = lanes[:1]
	}
	in.Addrs = a.addrs.Take(len(lanes))
	copy(in.Addrs, lanes)
}

// strideOf returns the stride of two or more lane addresses evenly spaced
// in wrapping arithmetic, if it fits an int32.
func strideOf(lanes []uint64) (int32, bool) {
	if len(lanes) < 2 {
		return 0, false
	}
	s := int32(lanes[1] - lanes[0])
	step := uint64(int64(s))
	if lanes[0]+step != lanes[1] {
		return 0, false
	}
	for i := 2; i < len(lanes); i++ {
		if lanes[i]-lanes[i-1] != step {
			return 0, false
		}
	}
	return s, true
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
