package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// ContentHash returns a SHA-256 digest over an application's full semantic
// content: names, every kernel's launch geometry and resource footprint,
// and every instruction of every warp including per-lane addresses. The
// lanes are hashed as Arena.SetLanes would store them, evenly spaced ones
// as lane 0 and a stride, so an instruction hashes alike in either lane
// form and a strided one is not expanded to be hashed. Two apps with equal
// content hash simulate identically under every configuration, regardless
// of how (or how many times) the trace was parsed or generated — which is
// exactly what pointer identity cannot express. The sweep service keys its
// persistent result cache on this hash, and the profile memoization in
// internal/sim uses it so separately-parsed copies of the same trace share
// one profile.
//
// Apps are immutable once built (the simulator relies on this already), so
// the digest is computed by the first call and kept on the app.
func ContentHash(a *App) [32]byte { return a.hash.get(a.contentHash, nil) }

// LaunchKey returns a SHA-256 digest over a kernel launch's *static*
// content: grid/block geometry, resource footprint, and the per-warp
// instruction streams (PC, opcode, registers, active mask, access width)
// — everything that determines the launch's control and issue behavior.
// Two things are deliberately excluded:
//
//   - The kernel name. Trace generators (and real NVBit traces) suffix
//     repeated launches of one kernel with a step or invocation index, so
//     the name distinguishes launches that execute identical code.
//   - Per-lane address values. Repeated launches walk different base
//     pointers over the same access pattern; the address *count* per
//     instruction (the coalescing shape's upper bound) is static and is
//     hashed, the values are not.
//
// Launches with equal LaunchKey therefore execute the same instruction
// stream over the same geometry — the memoization unit of sampled mode
// (internal/sim). Unlike ContentHash this is an approximation by design:
// different address values can change cache behavior, which is exactly the
// drift the sampling envelopes in internal/regress bound.
//
// Kernels are immutable once built, so the digest is computed by the first
// call and kept on the kernel, as ContentHash's is on the app.
func LaunchKey(k *Kernel) [32]byte { return k.key.get(k.launchKey, nil) }

// contentHash digests the app in declaration order, names and
// address values included. Where every kernel numbers its memory
// instructions as Validate requires, MemIndex follows from what is hashed
// and is left out. A kernel that departs from that numbering (a sampled
// kernel keeps the indices of the kernel it samples) is input the
// analytical memory model reads differently, so then every kernel's indices
// follow the last kernel: each kernel's encoding is self-delimiting, so the
// trailer cannot collide with a trace that has none.
func (a *App) contentHash() [32]byte {
	w := newWalker("swiftsim-trace-hash 2", true, true)
	w.str(a.Name)
	w.str(a.Suite)
	w.u32(uint32(len(a.Kernels)))
	renumbered := false
	for _, k := range a.Kernels {
		if w.kernel(k) {
			renumbered = true
		}
	}
	if renumbered {
		w.str("memindex")
		for _, k := range a.Kernels {
			w.memIndices(k)
		}
	}
	return w.sum()
}

// launchKey digests one kernel without its name or address values.
func (k *Kernel) launchKey() [32]byte {
	w := newWalker("swiftsim-launch-key 1", false, false)
	w.kernel(k)
	return w.sum()
}

// walker feeds a trace into a digest with unambiguous framing: every
// string and slice is length-prefixed, so distinct traces cannot collide
// by field concatenation. names and addrs are the two inclusion choices
// that separate the content hash from the launch key.
type walker struct {
	d hash.Hash
	// buf batches writes into the digest; sha256.Write per instruction
	// field would dominate the walk.
	buf          []byte
	names, addrs bool
}

func newWalker(tag string, names, addrs bool) *walker {
	w := &walker{d: sha256.New(), buf: make([]byte, 0, 1<<15), names: names, addrs: addrs}
	w.str(tag)
	return w
}

func (w *walker) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

func (w *walker) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *walker) dim(v Dim3) { w.u32(uint32(v.X)); w.u32(uint32(v.Y)); w.u32(uint32(v.Z)) }

func (w *walker) flush() {
	w.d.Write(w.buf)
	w.buf = w.buf[:0]
}

// kernel digests k and reports whether its memory instructions depart from
// the numbering Validate requires.
func (w *walker) kernel(k *Kernel) (renumbered bool) {
	if w.names {
		w.str(k.Name)
	}
	w.dim(k.Grid)
	w.dim(k.Block)
	w.u32(uint32(k.RegsPerThread))
	w.u32(uint32(k.SharedMemPerBlock))
	w.u32(uint32(len(k.Blocks)))
	// The instruction loop appends through a local: a field store per
	// append costs the walk about a tenth.
	le, buf := binary.LittleEndian, w.buf
	var next uint32
	for bi := range k.Blocks {
		b := &k.Blocks[bi]
		buf = le.AppendUint32(buf, uint32(len(b.Warps)))
		for _, wt := range b.Warps {
			buf = le.AppendUint32(buf, uint32(len(wt)))
			for i := range wt {
				in := &wt[i]
				if in.Op.IsMem() {
					renumbered = renumbered || in.MemIndex != next
					next++
				}
				buf = le.AppendUint64(buf, in.PC)
				buf = append(buf, byte(in.Op), byte(in.Dst), byte(in.Src[0]), byte(in.Src[1]))
				buf = le.AppendUint32(buf, in.ActiveMask)
				n := 0
				if in.Op.IsMem() {
					n = in.ActiveLanes()
				}
				buf = le.AppendUint32(buf, uint32(n))
				if w.addrs && n > 0 {
					buf = appendLanes(buf, k.Store, in, n)
				}
				if len(buf) >= 1<<15-64 {
					w.d.Write(buf)
					buf = buf[:0]
				}
			}
		}
	}
	w.buf = buf
	return renumbered
}

// Lane forms in the content hash: the byte after a lane count.
const (
	hashListed  = 0
	hashStrided = 1
)

// appendLanes appends the n lanes of in, strided or listed as the lane form
// byte says: lane 0 and the stride when strideOf accepts them, as it does
// every strided instruction's and a listed instruction's that SetLanes
// would have kept strided, else every address, as for one lane.
func appendLanes(buf []byte, lanes *LaneStore, in *Inst, n int) []byte {
	le := binary.LittleEndian
	switch {
	case !in.Listed() && n > 1:
		return appendStrided(buf, in.lane, in.Stride)
	case !in.Listed():
		return le.AppendUint64(append(buf, hashListed), in.lane)
	}
	run := lanes.run(in.lane, n)
	if s, ok := strideOf(run); ok {
		return appendStrided(buf, run[0], s)
	}
	buf = append(buf, hashListed)
	for _, addr := range run {
		buf = le.AppendUint64(buf, addr)
	}
	return buf
}

// appendStrided appends strided lanes from lane 0 and their stride.
func appendStrided(buf []byte, lane0 uint64, stride int32) []byte {
	buf = append(buf, hashStrided)
	buf = binary.LittleEndian.AppendUint64(buf, lane0)
	return binary.LittleEndian.AppendUint32(buf, uint32(stride))
}

// memIndices digests the MemIndex of k's memory instructions in order.
func (w *walker) memIndices(k *Kernel) {
	for bi := range k.Blocks {
		for _, wt := range k.Blocks[bi].Warps {
			for i := range wt {
				if wt[i].Op.IsMem() {
					w.u32(wt[i].MemIndex)
				}
			}
			if len(w.buf) >= 1<<15-64 {
				w.flush()
			}
		}
	}
}

func (w *walker) sum() [32]byte {
	w.flush()
	var out [32]byte
	w.d.Sum(out[:0])
	return out
}
