package trace

import (
	"math/bits"
	"testing"
)

// hashTestApp builds a small two-kernel app exercising every hashed field.
func hashTestApp() *App {
	k := func(name string, base uint64) *Kernel {
		return &Kernel{
			Name:              name,
			Grid:              Dim3{X: 2, Y: 1, Z: 1},
			Block:             Dim3{X: 32, Y: 1, Z: 1},
			RegsPerThread:     16,
			SharedMemPerBlock: 1024,
			Blocks: []BlockTrace{
				{Warps: []WarpTrace{{
					{PC: 0, Op: OpInt, Dst: 1, ActiveMask: 0xffffffff},
					{PC: 8, Op: OpLoadGlobal, Dst: 2, Src: [2]Reg{1}, ActiveMask: 0x1, Addrs: []uint64{base}},
					{PC: 16, Op: OpExit, ActiveMask: 0xffffffff},
				}}},
				{Warps: []WarpTrace{{
					{PC: 0, Op: OpSP, Dst: 3, Src: [2]Reg{2, 1}, ActiveMask: 0xffffffff},
					{PC: 8, Op: OpExit, ActiveMask: 0xffffffff},
				}}},
			},
		}
	}
	return &App{Name: "HASH", Suite: "test", Kernels: []*Kernel{k("k0", 0x100), k("k1", 0x200)}}
}

// deepCopyApp clones an app down to the instruction slices, producing a
// structurally identical trace at entirely new addresses — the
// "separately parsed copy" case the content hash exists for.
func deepCopyApp(a *App) *App {
	out := &App{Name: a.Name, Suite: a.Suite}
	for _, k := range a.Kernels {
		nk := &Kernel{
			Name: k.Name, Grid: k.Grid, Block: k.Block,
			RegsPerThread: k.RegsPerThread, SharedMemPerBlock: k.SharedMemPerBlock,
		}
		for _, b := range k.Blocks {
			nb := BlockTrace{}
			for _, w := range b.Warps {
				nw := make(WarpTrace, len(w))
				copy(nw, w)
				for i := range nw {
					nw[i].Addrs = append([]uint64(nil), w[i].Addrs...)
				}
				nb.Warps = append(nb.Warps, nw)
			}
			nk.Blocks = append(nk.Blocks, nb)
		}
		out.Kernels = append(out.Kernels, nk)
	}
	return out
}

func TestContentHashEqualForCopies(t *testing.T) {
	a := hashTestApp()
	b := deepCopyApp(a)
	if a == b {
		t.Fatal("deep copy returned the same pointer")
	}
	if ContentHash(a) != ContentHash(b) {
		t.Error("structurally identical apps hash differently")
	}
	// Memoized path must agree with the fresh computation.
	if ContentHash(a) != computeContentHash(a) {
		t.Error("memoized hash differs from recomputation")
	}
}

func TestContentHashSensitivity(t *testing.T) {
	base := hashTestApp()
	mutations := map[string]func(a *App){
		"app name":    func(a *App) { a.Name = "OTHER" },
		"kernel name": func(a *App) { a.Kernels[0].Name = "kX" },
		"grid":        func(a *App) { a.Kernels[0].Grid.Y = 7 },
		"regs":        func(a *App) { a.Kernels[0].RegsPerThread++ },
		"shmem":       func(a *App) { a.Kernels[1].SharedMemPerBlock++ },
		"opcode":      func(a *App) { a.Kernels[0].Blocks[0].Warps[0][0].Op = OpSFU },
		"dst reg":     func(a *App) { a.Kernels[0].Blocks[0].Warps[0][0].Dst = 9 },
		"mask":        func(a *App) { a.Kernels[1].Blocks[0].Warps[0][0].ActiveMask = 0x3 },
		"address":     func(a *App) { a.Kernels[0].Blocks[0].Warps[0][1].Addrs[0]++ },
		"pc":          func(a *App) { a.Kernels[0].Blocks[0].Warps[0][1].PC += 8 },
	}
	want := ContentHash(base)
	for name, mutate := range mutations {
		m := deepCopyApp(base)
		mutate(m)
		if ContentHash(m) == want {
			t.Errorf("%s change did not change the hash", name)
		}
	}
}

// TestContentHashFoldsRenumbering: MemIndex follows from the structure of a
// trace numbered as Validate requires, so it is not hashed there; a trace
// that departs from that numbering (a sampled kernel keeps its original
// indices) is different input to the Memory simulator and must not share a
// digest, or a profile, with the numbered one. LaunchKey never reads it.
func TestContentHashFoldsRenumbering(t *testing.T) {
	base := hashTestApp()
	m := deepCopyApp(base)
	m.Kernels[1].Blocks[0].Warps[0][1].MemIndex = 7
	if ContentHash(m) == ContentHash(base) {
		t.Error("a renumbered memory instruction did not change the content hash")
	}
	if LaunchKey(m.Kernels[1]) != LaunchKey(base.Kernels[1]) {
		t.Error("a renumbered memory instruction changed the launch key")
	}
	// The index trailer is the whole difference: two traces renumbered
	// alike agree, two renumbered differently do not.
	m2 := deepCopyApp(m)
	if ContentHash(m2) != ContentHash(m) {
		t.Error("equally renumbered copies hash differently")
	}
	m3 := deepCopyApp(m) // a fresh pointer: the digest memo assumes immutable apps
	m3.Kernels[1].Blocks[0].Warps[0][1].MemIndex = 8
	if ContentHash(m3) == ContentHash(m) {
		t.Error("differently renumbered copies collided")
	}
	// A non-memory instruction's field is not read.
	n := deepCopyApp(base)
	n.Kernels[0].Blocks[0].Warps[0][0].MemIndex = 5
	if ContentHash(n) != ContentHash(base) {
		t.Error("a non-memory instruction's MemIndex changed the content hash")
	}
}

// TestContentHashFraming: moving a byte of content across a field boundary
// must change the digest (length prefixes make encodings unambiguous).
func TestContentHashFraming(t *testing.T) {
	a := hashTestApp()
	a.Name, a.Suite = "AB", "C"
	b := deepCopyApp(a)
	b.Name, b.Suite = "A", "BC"
	if ContentHash(a) == ContentHash(b) {
		t.Error("field-boundary shift collided")
	}
}

// TestContentHashMemoBounded: hashing more distinct apps than the memo's
// cap of 256 leaves at most 256 retained, the first app hashed among the
// evicted, and a retained digest is served without a recompute.
func TestContentHashMemoBounded(t *testing.T) {
	first := hashTestApp()
	want := ContentHash(first)
	for i := 0; i < 256+16; i++ {
		ContentHash(hashTestApp())
	}
	if n := hashMemo.Stats().Entries; n > 256 {
		t.Errorf("hash memo grew to %d entries, cap 256", n)
	}
	last := hashTestApp()
	ContentHash(last)
	before := hashMemo.Stats().Computes
	ContentHash(last)
	if n := hashMemo.Stats().Computes - before; n != 0 {
		t.Errorf("a retained digest was computed %d more times", n)
	}
	if ContentHash(first) != want || hashMemo.Stats().Computes == before {
		t.Error("the oldest digest was not evicted, or came back changed")
	}
}

// TestContentHashLaneForms: an instruction's lanes hash alike kept strided
// and listed, for strides up, down, zero (a broadcast) and wrapping past
// the top of the address space, and a changed base, stride or lane count
// moves the hash in either form. The launch key, which hashes no address,
// is the same for both forms as well.
func TestContentHashLaneForms(t *testing.T) {
	appOf := func(in Inst) *App {
		k := &Kernel{
			Name: "k", Grid: Dim3{X: 1, Y: 1, Z: 1}, Block: Dim3{X: 32, Y: 1, Z: 1},
			Blocks: []BlockTrace{{Warps: []WarpTrace{{in, {PC: 8, Op: OpExit, ActiveMask: 0xffffffff}}}}},
		}
		return &App{Name: "LANES", Suite: "test", Kernels: []*Kernel{k}}
	}
	load := func(mask uint32) Inst { return Inst{Op: OpLoadGlobal, Dst: 1, ActiveMask: mask} }
	strided := func(mask uint32, base uint64, stride int32) *App {
		in := load(mask)
		in.Addrs, in.Stride = []uint64{base}, stride
		return appOf(in)
	}
	listed := func(mask uint32, base uint64, stride int32) *App {
		in := load(mask)
		for i := 0; i < in.ActiveLanes(); i++ {
			in.Addrs = append(in.Addrs, base+uint64(i)*uint64(int64(stride)))
		}
		return appOf(in)
	}
	for _, c := range []struct {
		name   string
		mask   uint32
		base   uint64
		stride int32
	}{
		{"coalesced", 0xffffffff, 0x1000, 4},
		{"broadcast", 0xffffffff, 0x40, 0},
		{"negative", 0x0f0f0f0f, 0x2000, -8},
		{"wrapping", 0xffff0000, ^uint64(0) - 15, 4},
		{"two lanes", 0x11, 0x100, 1 << 30},
	} {
		h := computeContentHash(strided(c.mask, c.base, c.stride))
		if got := computeContentHash(listed(c.mask, c.base, c.stride)); got != h {
			t.Errorf("%s: listed lanes hash %x, strided %x", c.name, got[:4], h[:4])
		}
		if a, b := strided(c.mask, c.base, c.stride), listed(c.mask, c.base, c.stride); computeLaunchKey(a.Kernels[0]) != computeLaunchKey(b.Kernels[0]) {
			t.Errorf("%s: the two forms have different launch keys", c.name)
		}
		fewer := c.mask &^ (1 << 31 >> bits.LeadingZeros32(c.mask))
		for what, moved := range map[string][2]*App{
			"base":       {strided(c.mask, c.base+4, c.stride), listed(c.mask, c.base+4, c.stride)},
			"stride":     {strided(c.mask, c.base, c.stride+4), listed(c.mask, c.base, c.stride+4)},
			"lane count": {strided(fewer, c.base, c.stride), listed(fewer, c.base, c.stride)},
		} {
			for form, a := range moved {
				if computeContentHash(a) == h {
					t.Errorf("%s: a changed %s leaves the hash of form %d unmoved", c.name, what, form)
				}
			}
		}
	}

	// Lanes that are not evenly spaced, or whose stride does not fit an
	// int32, are hashed listed: each differs from its strided near miss.
	scatter := load(0x7)
	scatter.Addrs = []uint64{0x100, 0x104, 0x10c}
	if computeContentHash(appOf(scatter)) == computeContentHash(strided(0x7, 0x100, 4)) {
		t.Error("a scatter hashes like the strided lanes it starts as")
	}
	wide := load(0x3)
	wide.Addrs = []uint64{0, 1 << 40}
	if computeContentHash(appOf(wide)) == computeContentHash(strided(0x3, 0, 0)) {
		t.Error("lanes spaced beyond an int32 hash like a broadcast")
	}
}
