package trace

import (
	"bytes"
	"math/bits"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// tinyApp builds a small, valid application for tests. Its lane addresses
// are committed through an Arena, as both trace producers commit theirs, so
// its evenly spaced lanes are held strided, as Read returns them.
func tinyApp() *App {
	var arena Arena
	lanes := func(in Inst, addrs ...uint64) Inst {
		arena.SetLanes(&in, addrs)
		return in
	}
	mkWarp := func(seed uint64) WarpTrace {
		return WarpTrace{
			{PC: 0, Op: OpInt, Dst: 1, ActiveMask: 0xffffffff},
			lanes(Inst{PC: 8, Op: OpLoadGlobal, Dst: 2, Src: [2]Reg{1, RegNone}, ActiveMask: 0xf},
				seed, seed+32, seed+64, seed+96),
			{PC: 16, Op: OpSP, Dst: 3, Src: [2]Reg{2, 1}, ActiveMask: 0xffffffff},
			lanes(Inst{PC: 24, Op: OpStoreGlobal, Src: [2]Reg{3, RegNone}, ActiveMask: 0x3},
				seed+128, seed+160),
			{PC: 32, Op: OpBarrier, ActiveMask: 0xffffffff},
			{PC: 40, Op: OpExit, ActiveMask: 0xffffffff},
		}
	}
	k := &Kernel{
		Name:              "k0",
		Grid:              Dim3{2, 1, 1},
		Block:             Dim3{64, 1, 1},
		RegsPerThread:     32,
		SharedMemPerBlock: 1024,
	}
	for b := 0; b < 2; b++ {
		k.Blocks = append(k.Blocks, BlockTrace{
			Warps: []WarpTrace{mkWarp(uint64(b) * 4096), mkWarp(uint64(b)*4096 + 2048)},
		})
	}
	k.NumberMem()
	k.Store = arena.Store()
	return &App{Name: "tiny", Suite: "unit", Kernels: []*Kernel{k}}
}

func TestTinyAppValid(t *testing.T) {
	if err := tinyApp().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAppCounts(t *testing.T) {
	a := tinyApp()
	k := a.Kernels[0]
	if got := k.NumBlocks(); got != 2 {
		t.Errorf("NumBlocks = %d, want 2", got)
	}
	if got := k.WarpsPerBlock(); got != 2 {
		t.Errorf("WarpsPerBlock = %d, want 2", got)
	}
	if got := k.Insts(); got != 24 {
		t.Errorf("Insts = %d, want 24", got)
	}
	if got := a.Insts(); got != 24 {
		t.Errorf("app Insts = %d, want 24", got)
	}
}

func TestOpClassStrings(t *testing.T) {
	for op := OpClass(0); op < numOpClasses; op++ {
		parsed, err := ParseOpClass(op.String())
		if err != nil || parsed != op {
			t.Errorf("ParseOpClass(%q) = %v, %v", op.String(), parsed, err)
		}
	}
	if _, err := ParseOpClass("FMA"); err == nil {
		t.Error("ParseOpClass accepted unknown mnemonic")
	}
	if OpClass(200).String() == "" {
		t.Error("unknown OpClass String() must be non-empty")
	}
}

func TestOpClassPredicates(t *testing.T) {
	cases := []struct {
		op                   OpClass
		alu, mem, gmem, smem bool
	}{
		{OpInt, true, false, false, false},
		{OpSP, true, false, false, false},
		{OpDP, true, false, false, false},
		{OpSFU, true, false, false, false},
		{OpLoadGlobal, false, true, true, false},
		{OpStoreGlobal, false, true, true, false},
		{OpLoadShared, false, true, false, true},
		{OpStoreShared, false, true, false, true},
		{OpBarrier, false, false, false, false},
		{OpExit, false, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsALU() != c.alu || c.op.IsMem() != c.mem ||
			c.op.IsGlobalMem() != c.gmem || c.op.IsSharedMem() != c.smem {
			t.Errorf("%v: predicates (alu=%v mem=%v gmem=%v smem=%v)",
				c.op, c.op.IsALU(), c.op.IsMem(), c.op.IsGlobalMem(), c.op.IsSharedMem())
		}
	}
}

func TestValidateRejections(t *testing.T) {
	mutate := []struct {
		name string
		mut  func(*App)
	}{
		{"empty app name", func(a *App) { a.Name = "" }},
		{"no kernels", func(a *App) { a.Kernels = nil }},
		{"empty kernel name", func(a *App) { a.Kernels[0].Name = "" }},
		{"zero grid", func(a *App) { a.Kernels[0].Grid = Dim3{0, 1, 1} }},
		{"block too large", func(a *App) { a.Kernels[0].Block = Dim3{2048, 1, 1} }},
		{"block count mismatch", func(a *App) { a.Kernels[0].Blocks = a.Kernels[0].Blocks[:1] }},
		{"zero regs", func(a *App) { a.Kernels[0].RegsPerThread = 0 }},
		{"negative shmem", func(a *App) { a.Kernels[0].SharedMemPerBlock = -1 }},
		{"warp count mismatch", func(a *App) {
			a.Kernels[0].Blocks[0].Warps = a.Kernels[0].Blocks[0].Warps[:1]
		}},
		{"empty warp", func(a *App) { a.Kernels[0].Blocks[0].Warps[0] = nil }},
		{"bad opcode", func(a *App) { a.Kernels[0].Blocks[0].Warps[0][0].Op = numOpClasses }},
		{"zero mask", func(a *App) { a.Kernels[0].Blocks[0].Warps[0][0].ActiveMask = 0 }},
		{"listed lanes with no store", func(a *App) { a.Kernels[0].Blocks[0].Warps[0][1].Stride = listedStride }},
		{"listed lanes past the store", func(a *App) {
			var arena Arena
			in := &a.Kernels[0].Blocks[0].Warps[0][1]
			arena.SetLanes(in, []uint64{0, 8, 12, 96})
			a.Kernels[0].Store = arena.Store()
			in.lane = addrChunk - 2
		}},
		{"listed lanes past the chunks", func(a *App) {
			var arena Arena
			in := &a.Kernels[0].Blocks[0].Warps[0][1]
			arena.SetLanes(in, []uint64{0, 8, 12, 96})
			a.Kernels[0].Store = arena.Store()
			in.lane += addrChunk
		}},
		{"addrs on ALU op", func(a *App) { a.Kernels[0].Blocks[0].Warps[0][0].lane = 1 }},
		{"stride on ALU op", func(a *App) { a.Kernels[0].Blocks[0].Warps[0][0].Stride = 4 }},
		{"stride on one lane", func(a *App) {
			in := &a.Kernels[0].Blocks[0].Warps[0][1]
			in.ActiveMask, in.Stride = 1, 32
		}},
		{"early exit", func(a *App) { a.Kernels[0].Blocks[0].Warps[0][2].Op = OpExit }},
		{"no exit", func(a *App) {
			w := a.Kernels[0].Blocks[0].Warps[0]
			w[len(w)-1].Op = OpInt
		}},
	}
	for _, m := range mutate {
		a := tinyApp()
		m.mut(a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid app", m.name)
		}
	}
}

// TestValidateRejectsMisnumberedMemory: a kernel whose memory instructions
// are not numbered 0, 1, ... in block → warp → instruction order fails
// Validate, and the error names the first bad instruction and the index it
// should carry. tinyApp's warps each hold a load (inst 1) and a store
// (inst 3), so the numbering runs 0..7 over two blocks of two warps.
func TestValidateRejectsMisnumberedMemory(t *testing.T) {
	cases := []struct {
		name string
		mut  func(k *Kernel)
		want string
	}{
		{"unnumbered", func(k *Kernel) {
			for _, b := range k.Blocks {
				for _, w := range b.Warps {
					for i := range w {
						w[i].MemIndex = 0
					}
				}
			}
		}, "block 0 warp 0: inst 3 (STG): MemIndex 0, want 1"},
		{"swapped within a warp", func(k *Kernel) {
			w := k.Blocks[1].Warps[0]
			w[1].MemIndex, w[3].MemIndex = w[3].MemIndex, w[1].MemIndex
		}, "block 1 warp 0: inst 1 (LDG): MemIndex 5, want 4"},
		{"numbered per warp", func(k *Kernel) {
			for _, b := range k.Blocks {
				for _, w := range b.Warps {
					w.NumberMem(0)
				}
			}
		}, "block 0 warp 1: inst 1 (LDG): MemIndex 0, want 2"},
		{"numbered from 1", func(k *Kernel) {
			var next uint32 = 1
			for _, b := range k.Blocks {
				for _, w := range b.Warps {
					next = w.NumberMem(next)
				}
			}
		}, "block 0 warp 0: inst 1 (LDG): MemIndex 1, want 0"},
	}
	for _, c := range cases {
		a := tinyApp()
		c.mut(a.Kernels[0])
		err := a.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the kernel", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "NumberMem") {
			t.Errorf("%s: error %q does not name %q and the fix", c.name, err, c.want)
		}
	}
	// Only memory instructions are numbered: an ALU instruction's field is
	// not read.
	a := tinyApp()
	a.Kernels[0].Blocks[0].Warps[0][0].MemIndex = 99
	if err := a.Validate(); err != nil {
		t.Errorf("a non-memory instruction's MemIndex failed Validate: %v", err)
	}
}

// sameTrace reports whether a and b hold one trace, field for field. It
// first computes the facts each keeps (its validity and digests), so two
// equal traces compare equal whichever of them a caller hashed or
// validated before.
func sameTrace(a, b *App) bool {
	for _, x := range []*App{a, b} {
		x.Validate()
		ContentHash(x)
		for _, k := range x.Kernels {
			LaunchKey(k)
		}
	}
	return reflect.DeepEqual(a, b)
}

func TestSGTRoundTrip(t *testing.T) {
	want := tinyApp()
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTrace(got, want) {
		t.Errorf("round trip mismatch")
	}
}

func TestSGTFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/tiny.sgt"
	want := tinyApp()
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTrace(got, want) {
		t.Errorf("file round trip mismatch")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(t.TempDir() + "/none.sgt"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSGTParseErrors(t *testing.T) {
	valid := func() string {
		var buf bytes.Buffer
		if err := Write(&buf, tinyApp()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}()
	cases := []struct {
		name, text string
	}{
		{"empty", ""},
		{"bad header", "sgt 2\n"},
		{"truncated after header", "sgt 1\n"},
		{"bad app line", "sgt 1\napp tiny\n"},
		{"bad kernel count", "sgt 1\napp tiny suite unit kernels zero\n"},
		{"zero kernels", "sgt 1\napp tiny suite unit kernels 0\n"},
		{"bad kernel line", "sgt 1\napp t suite u kernels 1\nkernel k0 grid 1,1\n"},
		{"bad dim3", "sgt 1\napp t suite u kernels 1\nkernel k0 grid 1,1 block 32,1,1 regs 8 shmem 0\n"},
		{"truncated body", strings.Join(strings.Split(valid, "\n")[:6], "\n")},
		{"no endapp", strings.Replace(valid, "endapp", "", 1)},
		{"corrupt mask", strings.Replace(valid, "ffffffff", "zz", 1)},
		{"bad blocktrace index", strings.Replace(valid, "blocktrace 0", "blocktrace 7", 1)},
		{"bad warp index", strings.Replace(valid, "warp 0 insts", "warp 9 insts", 1)},
		{"bad inst count", strings.Replace(valid, "insts 6", "insts -1", 1)},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: Read accepted invalid input", c.name)
		}
	}
}

func TestSGTIgnoresCommentsAndBlanks(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, tinyApp()); err != nil {
		t.Fatal(err)
	}
	commented := "# leading comment\n\n" + strings.Replace(buf.String(), "\n", "\n# interleaved\n\n", 1)
	if _, err := Read(strings.NewReader(commented)); err != nil {
		t.Fatalf("Read with comments: %v", err)
	}
}

// randomWarp builds a structurally valid warp from a PRNG, for property
// tests, committing its lanes to arena.
func randomWarp(r *rand.Rand, n int, arena *Arena) WarpTrace {
	w := make(WarpTrace, 0, n+1)
	for i := 0; i < n; i++ {
		op := OpClass(r.Intn(int(OpBarrier + 1)))
		mask := r.Uint32()
		if mask == 0 {
			mask = 1
		}
		in := Inst{
			PC:         uint64(i * 8),
			Op:         op,
			Dst:        Reg(r.Intn(255)),
			Src:        [2]Reg{Reg(r.Intn(256)), Reg(r.Intn(256))},
			ActiveMask: mask,
		}
		if op.IsMem() {
			lanes := make([]uint64, bits.OnesCount32(mask))
			for j := range lanes {
				lanes[j] = uint64(r.Int63()) &^ 3
			}
			arena.SetLanes(&in, lanes)
		}
		w = append(w, in)
	}
	w = append(w, Inst{PC: uint64(n * 8), Op: OpExit, ActiveMask: 1})
	return w
}

// TestQuickSGTRoundTrip: serialization followed by parsing reproduces any
// structurally valid application exactly.
func TestQuickSGTRoundTrip(t *testing.T) {
	f := func(seed int64, nBlocksRaw, nInstsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nBlocks := 1 + int(nBlocksRaw)%4
		nInsts := 1 + int(nInstsRaw)%40
		k := &Kernel{
			Name:          "kq",
			Grid:          Dim3{nBlocks, 1, 1},
			Block:         Dim3{64, 1, 1},
			RegsPerThread: 16,
		}
		var arena Arena
		for b := 0; b < nBlocks; b++ {
			k.Blocks = append(k.Blocks, BlockTrace{
				Warps: []WarpTrace{randomWarp(r, nInsts, &arena), randomWarp(r, nInsts, &arena)},
			})
		}
		k.NumberMem()
		k.Store = arena.Store()
		app := &App{Name: "q", Suite: "quick", Kernels: []*Kernel{k}}
		if err := app.Validate(); err != nil {
			t.Logf("generated invalid app: %v", err)
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, app); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			t.Logf("Read: %v", err)
			return false
		}
		return sameTrace(got, app)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestActiveLanes(t *testing.T) {
	cases := []struct {
		mask uint32
		want int
	}{{0, 0}, {1, 1}, {0xffffffff, 32}, {0xf0f0f0f0, 16}}
	for _, c := range cases {
		in := Inst{ActiveMask: c.mask}
		if got := in.ActiveLanes(); got != c.want {
			t.Errorf("ActiveLanes(%#x) = %d, want %d", c.mask, got, c.want)
		}
	}
}

func TestDim3(t *testing.T) {
	d := Dim3{2, 3, 4}
	if d.Count() != 24 {
		t.Errorf("Count = %d, want 24", d.Count())
	}
	if d.String() != "2,3,4" {
		t.Errorf("String = %q", d.String())
	}
	got, err := parseDim3("2,3,4")
	if err != nil || got != d {
		t.Errorf("parseDim3 = %v, %v", got, err)
	}
}

func TestSGTGzipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := tinyApp()
	plain := dir + "/a.sgt"
	zipped := dir + "/a.sgt.gz"
	if err := WriteFile(plain, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(zipped, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(zipped)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTrace(got, want) {
		t.Error("gzip round trip mismatch")
	}
	pi, _ := os.Stat(plain)
	zi, _ := os.Stat(zipped)
	if zi.Size() >= pi.Size() {
		t.Errorf("gzip (%d bytes) not smaller than plain (%d)", zi.Size(), pi.Size())
	}
}

func TestGzipRejectsCorrupt(t *testing.T) {
	path := t.TempDir() + "/bad.sgt.gz"
	if err := os.WriteFile(path, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("corrupt gzip accepted")
	}
}
