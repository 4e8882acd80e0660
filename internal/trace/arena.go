package trace

import (
	"fmt"

	"swiftsim/internal/mem"
)

// Arena carves one app's warp instruction streams and listed lane
// addresses, all its kernels', from chunked backing stores, so that
// building a trace costs a few allocations per chunk instead of one per
// instruction. An instruction holds its lanes itself when it has one or
// they are evenly spaced; the others are listed in the app's LaneStore.
// Both trace producers use one per app: the workload generators and the
// .sgt reader. An app's only partly filled chunks are its last of each
// store.
//
// Every warp it returns, and every listed run a LaneStore returns, has its
// capacity clamped to its length, so an append reallocates instead of
// writing into a neighbour's storage: a built trace stays as immutable as
// one made of separate allocations.
//
// The zero Arena is ready to use; it makes each store on first use. An
// Arena is not safe for concurrent use.
type Arena struct {
	insts *mem.Slab[Inst]
	lanes *LaneStore
	spare []uint64 // the untaken tail of the lane store's last chunk
}

// LaneStore holds the listed lane addresses of one app's memory
// instructions, those whose lanes are neither one nor evenly spaced, in the
// chunks its Arena carves them from. Every kernel of the app refers to it
// (Kernel.Store). A listed instruction's lane word is its run's index,
// chunk·addrChunk + offset; no run spans two chunks.
type LaneStore struct {
	chunks [][]uint64
}

// Chunk sizes in elements: 32 KiB of instructions, 64 KiB of listed
// addresses. A take that the current chunk's tail cannot hold abandons
// that tail, which is shorter than the take (a warp, or one instruction's
// lanes), and an app's last chunks are at most these sizes.
const (
	instChunk = 1024
	addrChunk = 8192
)

// SetLanes gives in the lane addresses lanes, one per each of its active
// lanes in ascending lane order. One lane, or lanes evenly spaced by a
// stride that fits an int32, in holds itself: the address, or lane 0's and
// the stride. Otherwise they are listed, copied into the arena's lane
// store, as they are for a scatter.
func (a *Arena) SetLanes(in *Inst, lanes []uint64) {
	if a.inline(in, lanes) {
		return
	}
	if s, ok := strideOf(lanes); ok && s != listedStride {
		in.lane, in.Stride = lanes[0], s
		return
	}
	a.list(in, lanes)
}

// ListLanes is SetLanes keeping two or more lanes listed whatever their
// spacing: the form traces held every instruction's lanes in before the
// strided one, which simulates alike.
func (a *Arena) ListLanes(in *Inst, lanes []uint64) {
	if !a.inline(in, lanes) {
		a.list(in, lanes)
	}
}

// inline checks that lanes has one address per active lane of in and
// stores an instruction of at most one lane in in itself.
func (a *Arena) inline(in *Inst, lanes []uint64) bool {
	if n := in.ActiveLanes(); len(lanes) != n {
		panic(fmt.Sprintf("trace: %d lane addresses for %d active lanes", len(lanes), n))
	}
	in.lane, in.Stride = 0, 0
	if len(lanes) > 1 {
		return false
	}
	if len(lanes) == 1 {
		in.lane = lanes[0]
	}
	return true
}

// list copies lanes into the lane store as in's run.
func (a *Arena) list(in *Inst, lanes []uint64) {
	if len(lanes) > len(a.spare) {
		if a.lanes == nil {
			a.lanes = new(LaneStore)
		}
		a.spare = make([]uint64, addrChunk)
		a.lanes.chunks = append(a.lanes.chunks, a.spare)
	}
	in.lane = uint64(len(a.lanes.chunks)-1)*addrChunk + uint64(addrChunk-len(a.spare))
	in.Stride = listedStride
	a.spare = a.spare[copy(a.spare, lanes):]
}

// Store returns the lane store the arena has listed lanes in, nil before
// the first. A producer gives it to each kernel it finishes: every listed
// run of that kernel is in it by then.
func (a *Arena) Store() *LaneStore { return a.lanes }

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

// Lanes returns in's lane addresses, one per active lane in ascending lane
// order: a listed instruction's run in s, or any other memory
// instruction's expanded into buf. Either way the caller must not modify
// them. A non-memory instruction has none. Only a kernel with no listed
// instruction has a nil store.
func (s *LaneStore) Lanes(in *Inst, buf *[WarpSize]uint64) []uint64 {
	n := in.ActiveLanes()
	if in.Listed() {
		return s.run(in.lane, n)
	}
	if !in.Op.IsMem() {
		return nil
	}
	a, st := in.lane, uint64(int64(in.Stride))
	for i := range buf[:n] {
		buf[i] = a
		a += st
	}
	return buf[:n]
}

// run returns the n addresses of the run at index i.
func (s *LaneStore) run(i uint64, n int) []uint64 {
	c, off := s.chunks[i/addrChunk], i%addrChunk
	return c[off : off+uint64(n) : off+uint64(n)]
}

// holds reports whether the n-address run at index i lies inside s.
func (s *LaneStore) holds(i uint64, n int) bool {
	if s == nil || i/addrChunk >= uint64(len(s.chunks)) {
		return false
	}
	return i%addrChunk+uint64(n) <= uint64(len(s.chunks[i/addrChunk]))
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
