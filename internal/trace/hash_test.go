package trace

import (
	"math/bits"
	"sync"
	"sync/atomic"
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
					{PC: 8, Op: OpLoadGlobal, Dst: 2, Src: [2]Reg{1}, ActiveMask: 0x1, lane: base},
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

// deepCopyApp clones an app down to the instruction slices and lane
// stores, producing a structurally identical trace at entirely new
// addresses — the "separately parsed copy" case the content hash exists
// for.
func deepCopyApp(a *App) *App {
	out := &App{Name: a.Name, Suite: a.Suite}
	for _, k := range a.Kernels {
		nk := &Kernel{
			Name: k.Name, Grid: k.Grid, Block: k.Block,
			RegsPerThread: k.RegsPerThread, SharedMemPerBlock: k.SharedMemPerBlock,
		}
		if k.Store != nil {
			nk.Store = &LaneStore{}
			for _, c := range k.Store.chunks {
				nk.Store.chunks = append(nk.Store.chunks, append([]uint64(nil), c...))
			}
		}
		for _, b := range k.Blocks {
			nb := BlockTrace{}
			for _, w := range b.Warps {
				nw := make(WarpTrace, len(w))
				copy(nw, w)
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
	// The kept digest must agree with the fresh computation.
	if ContentHash(a) != a.contentHash() {
		t.Error("kept hash differs from recomputation")
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
		"address":     func(a *App) { a.Kernels[0].Blocks[0].Warps[0][1].lane++ },
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
	m3 := deepCopyApp(m) // a fresh copy: the digest kept on an app assumes it immutable
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

// TestDigestsKeptOnTheTrace: a second ContentHash of an app and a second
// LaunchKey of a kernel read the digest kept on it and allocate nothing (a
// compute allocates its walker), and both equal a fresh copy's digests.
func TestDigestsKeptOnTheTrace(t *testing.T) {
	app := hashTestApp()
	want, key := ContentHash(app), LaunchKey(app.Kernels[0])
	if n := testing.AllocsPerRun(10, func() { ContentHash(app) }); n != 0 {
		t.Errorf("a second ContentHash allocated %v objects: it computed the digest again", n)
	}
	if n := testing.AllocsPerRun(10, func() { LaunchKey(app.Kernels[0]) }); n != 0 {
		t.Errorf("a second LaunchKey allocated %v objects: it computed the digest again", n)
	}
	fresh := deepCopyApp(app)
	if ContentHash(app) != want || ContentHash(fresh) != want {
		t.Error("the kept content hash is not the app's")
	}
	if LaunchKey(app.Kernels[0]) != key || LaunchKey(fresh.Kernels[0]) != key {
		t.Error("the kept launch key is not the kernel's")
	}
}

// TestDigestComputedOnce: concurrent first callers of one digest compute it
// once, and a compute that panics keeps nothing: the panic reaches its
// caller, and the next call computes the digest. A nil kernel panics
// ContentHash's walk; no kernel panics LaunchKey's, so a panicking compute
// stands in for one.
func TestDigestComputedOnce(t *testing.T) {
	var d fact[[32]byte]
	var computes atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.get(func() [32]byte { computes.Add(1); return [32]byte{1} }, nil)
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 || d.get(nil, nil) != [32]byte{1} {
		t.Errorf("8 concurrent first callers computed the digest %d times", n)
	}

	mustPanic := func(what string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	app, fresh := hashTestApp(), hashTestApp()
	kernels := app.Kernels
	app.Kernels = []*Kernel{kernels[0], nil}
	mustPanic("ContentHash over a nil kernel", func() { ContentHash(app) })
	app.Kernels = kernels
	if ContentHash(app) != ContentHash(fresh) {
		t.Error("a ContentHash that panicked kept a digest")
	}
	k := app.Kernels[0]
	mustPanic("a panicking LaunchKey compute", func() { k.key.get(func() [32]byte { panic("compute") }, nil) })
	if LaunchKey(k) != LaunchKey(fresh.Kernels[0]) {
		t.Error("a LaunchKey that panicked kept a digest")
	}
}

// TestContentHashLaneForms: an instruction's lanes hash alike kept strided
// and listed, for strides up, down, zero (a broadcast) and wrapping past
// the top of the address space, and a changed base, stride or lane count
// moves the hash in either form. The launch key, which hashes no address,
// is the same for both forms as well.
func TestContentHashLaneForms(t *testing.T) {
	appOf := func(in Inst, lanes *LaneStore) *App {
		k := &Kernel{
			Name: "k", Grid: Dim3{X: 1, Y: 1, Z: 1}, Block: Dim3{X: 32, Y: 1, Z: 1},
			Blocks: []BlockTrace{{Warps: []WarpTrace{{in, {PC: 8, Op: OpExit, ActiveMask: 0xffffffff}}}}},
			Store:  lanes,
		}
		return &App{Name: "LANES", Suite: "test", Kernels: []*Kernel{k}}
	}
	load := func(mask uint32) Inst { return Inst{Op: OpLoadGlobal, Dst: 1, ActiveMask: mask} }
	strided := func(mask uint32, base uint64, stride int32) *App {
		in := load(mask)
		in.lane, in.Stride = base, stride
		return appOf(in, nil)
	}
	listed := func(mask uint32, base uint64, stride int32) *App {
		in := load(mask)
		var lanes []uint64
		for i := 0; i < in.ActiveLanes(); i++ {
			lanes = append(lanes, base+uint64(i)*uint64(int64(stride)))
		}
		var arena Arena
		arena.ListLanes(&in, lanes)
		return appOf(in, arena.Store())
	}
	// setLanes is load(mask) with lanes as SetLanes keeps them.
	setLanes := func(mask uint32, lanes ...uint64) *App {
		in := load(mask)
		var arena Arena
		arena.SetLanes(&in, lanes)
		return appOf(in, arena.Store())
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
		h := strided(c.mask, c.base, c.stride).contentHash()
		if got := listed(c.mask, c.base, c.stride).contentHash(); got != h {
			t.Errorf("%s: listed lanes hash %x, strided %x", c.name, got[:4], h[:4])
		}
		if a, b := strided(c.mask, c.base, c.stride), listed(c.mask, c.base, c.stride); a.Kernels[0].launchKey() != b.Kernels[0].launchKey() {
			t.Errorf("%s: the two forms have different launch keys", c.name)
		}
		fewer := c.mask &^ (1 << 31 >> bits.LeadingZeros32(c.mask))
		for what, moved := range map[string][2]*App{
			"base":       {strided(c.mask, c.base+4, c.stride), listed(c.mask, c.base+4, c.stride)},
			"stride":     {strided(c.mask, c.base, c.stride+4), listed(c.mask, c.base, c.stride+4)},
			"lane count": {strided(fewer, c.base, c.stride), listed(fewer, c.base, c.stride)},
		} {
			for form, a := range moved {
				if a.contentHash() == h {
					t.Errorf("%s: a changed %s leaves the hash of form %d unmoved", c.name, what, form)
				}
			}
		}
	}

	// Lanes that are not evenly spaced, or whose stride does not fit an
	// int32, are hashed listed: each differs from its strided near miss.
	if setLanes(0x7, 0x100, 0x104, 0x10c).contentHash() == strided(0x7, 0x100, 4).contentHash() {
		t.Error("a scatter hashes like the strided lanes it starts as")
	}
	if setLanes(0x3, 0, 1<<40).contentHash() == strided(0x3, 0, 0).contentHash() {
		t.Error("lanes spaced beyond an int32 hash like a broadcast")
	}
}
