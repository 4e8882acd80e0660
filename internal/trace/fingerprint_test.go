package trace

import "testing"

// launchKernel builds a two-block kernel with a short mixed instruction
// stream. base offsets every address value without changing the access
// shape, mimicking a repeated launch that walks a different buffer.
func launchKernel(name string, base uint64) *Kernel {
	k := &Kernel{
		Name:              name,
		Grid:              Dim3{X: 2, Y: 1, Z: 1},
		Block:             Dim3{X: 64, Y: 1, Z: 1},
		RegsPerThread:     16,
		SharedMemPerBlock: 1024,
	}
	for b := 0; b < 2; b++ {
		var bt BlockTrace
		for w := 0; w < 2; w++ {
			bt.Warps = append(bt.Warps, WarpTrace{
				coalescedLoad(0xffffffff, base+uint64(b*2+w)*128),
				{PC: 8, Op: OpInt, Dst: 2, Src: [2]Reg{1, 1}, ActiveMask: 0xffffffff},
				{PC: 16, Op: OpExit, ActiveMask: 0xffffffff},
			})
		}
		k.Blocks = append(k.Blocks, bt)
	}
	return k
}

// coalescedLoad is a load whose active lanes read consecutive words from
// base: strided lanes, held in the instruction.
func coalescedLoad(mask uint32, base uint64) Inst {
	in := Inst{PC: 0, Op: OpLoadGlobal, Dst: 1, ActiveMask: mask}
	addrs := make([]uint64, in.ActiveLanes())
	for i := range addrs {
		addrs[i] = base + uint64(i)*4
	}
	var arena Arena
	arena.SetLanes(&in, addrs)
	return in
}

// TestLaunchKeyIgnoresNameAndAddressValues pins the memoization unit of
// sampled mode: repeated launches of one kernel differ only in their
// suffixed name and the buffers they walk, and must collide on LaunchKey.
func TestLaunchKeyIgnoresNameAndAddressValues(t *testing.T) {
	a := launchKernel("gemm_step0", 0x1000)
	b := launchKernel("gemm_step1", 0x9000_0000)
	if LaunchKey(a) != LaunchKey(b) {
		t.Error("launches differing only in name and address values got distinct LaunchKeys")
	}
}

// TestLaunchKeyDistinguishesStaticContent flips each hashed dimension in
// turn and checks the key moves: geometry, resources, opcode, operands,
// active mask, stream length, and the per-instruction address *count* (the
// coalescing shape) are all static content.
func TestLaunchKeyDistinguishesStaticContent(t *testing.T) {
	base := LaunchKey(launchKernel("k", 0))
	mutations := []struct {
		name string
		mut  func(k *Kernel)
	}{
		{"grid", func(k *Kernel) { k.Grid.X++ }},
		{"block dims", func(k *Kernel) { k.Block.Y = 2 }},
		{"registers", func(k *Kernel) { k.RegsPerThread++ }},
		{"shared memory", func(k *Kernel) { k.SharedMemPerBlock += 256 }},
		{"opcode", func(k *Kernel) { k.Blocks[0].Warps[0][1].Op = OpSP }},
		{"dst register", func(k *Kernel) { k.Blocks[0].Warps[0][1].Dst = 3 }},
		{"src register", func(k *Kernel) { k.Blocks[0].Warps[0][1].Src[0] = 7 }},
		{"pc", func(k *Kernel) { k.Blocks[1].Warps[1][1].PC += 8 }},
		{"active mask", func(k *Kernel) { k.Blocks[0].Warps[1][0].ActiveMask = 0xffff }},
		{"address count", func(k *Kernel) { k.Blocks[0].Warps[0][0] = coalescedLoad(0xffff, 0) }},
		{"stream length", func(k *Kernel) {
			w := &k.Blocks[1].Warps[0]
			*w = append(WarpTrace{{PC: 0, Op: OpInt, ActiveMask: 0xffffffff}}, *w...)
		}},
	}
	for _, m := range mutations {
		k := launchKernel("k", 0)
		m.mut(k)
		if LaunchKey(k) == base {
			t.Errorf("mutating %s did not change the LaunchKey", m.name)
		}
	}
}

// TestLaunchKeyMemoized checks the digest kept on the kernel is the computed
// one on repeat lookups (kernels are immutable once built, so hitting
// the cache must be indistinguishable from recomputing).
func TestLaunchKeyMemoized(t *testing.T) {
	k := launchKernel("k", 0)
	want := k.launchKey()
	for i := 0; i < 3; i++ {
		if got := LaunchKey(k); got != want {
			t.Fatalf("lookup %d: LaunchKey diverged from launchKey", i)
		}
	}
}
