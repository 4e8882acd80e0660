package trace

import "testing"

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

func TestContentHashMemoBounded(t *testing.T) {
	for i := 0; i < hashMemo.cap+16; i++ {
		ContentHash(hashTestApp())
	}
	hashMemo.mu.Lock()
	n := len(hashMemo.vals)
	hashMemo.mu.Unlock()
	if n > hashMemo.cap {
		t.Errorf("hash memo grew to %d entries, cap %d", n, hashMemo.cap)
	}
}
