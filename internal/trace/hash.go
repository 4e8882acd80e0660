package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
)

// ContentHash returns a SHA-256 digest over an application's full semantic
// content: names, every kernel's launch geometry and resource footprint,
// and every instruction of every warp including per-lane addresses. Two
// apps with equal content hash simulate identically under every
// configuration, regardless of how (or how many times) the trace was
// parsed or generated — which is exactly what pointer identity cannot
// express. The sweep service keys its persistent result cache on this
// hash, and the profile memoization in internal/sim uses it so
// separately-parsed copies of the same trace share one profile.
//
// Apps are immutable once built (the simulator relies on this already), so
// the digest is memoized per *App. The memo is bounded: sampled runs hash
// freshly-built truncated apps whose pointers never repeat, and FIFO
// eviction keeps those from accumulating.
func ContentHash(a *App) [32]byte { return hashMemo.get(a, computeContentHash) }

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
// Kernels are immutable once built, so the digest is memoized per *Kernel
// with the same bounded-FIFO discipline as ContentHash.
func LaunchKey(k *Kernel) [32]byte { return launchMemo.get(k, computeLaunchKey) }

var (
	hashMemo   = memo[*App]{cap: 256}
	launchMemo = memo[*Kernel]{cap: 1024}
)

// memo is a bounded digest memo keyed by pointer identity, evicting in
// FIFO order.
type memo[K comparable] struct {
	cap   int
	mu    sync.Mutex
	vals  map[K][32]byte
	order []K // FIFO eviction order
}

// get returns k's memoized digest, computing it on a miss. The walk runs
// outside the lock: concurrent first requests for the same key may compute
// twice, but the result is deterministic and apps can be large — holding
// the mutex across the walk would serialize sweeps.
func (m *memo[K]) get(k K, compute func(K) [32]byte) [32]byte {
	m.mu.Lock()
	h, ok := m.vals[k]
	m.mu.Unlock()
	if ok {
		return h
	}

	h = compute(k)

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.vals[k]; !ok {
		if m.vals == nil {
			m.vals = make(map[K][32]byte)
		}
		if len(m.order) >= m.cap {
			delete(m.vals, m.order[0])
			m.order = m.order[1:]
		}
		m.vals[k] = h
		m.order = append(m.order, k)
	}
	return h
}

// computeContentHash digests the app in declaration order, names and
// address values included.
func computeContentHash(a *App) [32]byte {
	w := newWalker("swiftsim-trace-hash 1", true, true)
	w.str(a.Name)
	w.str(a.Suite)
	w.u32(uint32(len(a.Kernels)))
	for _, k := range a.Kernels {
		w.kernel(k)
	}
	return w.sum()
}

// computeLaunchKey digests one kernel without its name or address values.
func computeLaunchKey(k *Kernel) [32]byte {
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
func (w *walker) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *walker) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *walker) dim(v Dim3) { w.u32(uint32(v.X)); w.u32(uint32(v.Y)); w.u32(uint32(v.Z)) }

func (w *walker) flush() {
	w.d.Write(w.buf)
	w.buf = w.buf[:0]
}

func (w *walker) kernel(k *Kernel) {
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
	for bi := range k.Blocks {
		b := &k.Blocks[bi]
		buf = le.AppendUint32(buf, uint32(len(b.Warps)))
		for _, wt := range b.Warps {
			buf = le.AppendUint32(buf, uint32(len(wt)))
			for i := range wt {
				in := &wt[i]
				buf = le.AppendUint64(buf, in.PC)
				buf = append(buf, byte(in.Op), byte(in.Dst), byte(in.Src[0]), byte(in.Src[1]))
				buf = le.AppendUint32(buf, in.ActiveMask)
				buf = le.AppendUint32(buf, uint32(len(in.Addrs)))
				if w.addrs {
					for _, addr := range in.Addrs {
						buf = le.AppendUint64(buf, addr)
					}
				}
				if len(buf) >= 1<<15-64 {
					w.d.Write(buf)
					buf = buf[:0]
				}
			}
		}
	}
	w.buf = buf
}

func (w *walker) sum() [32]byte {
	w.flush()
	var out [32]byte
	w.d.Sum(out[:0])
	return out
}
