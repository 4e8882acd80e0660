package workload

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"swiftsim/internal/trace"
)

func TestCatalogComplete(t *testing.T) {
	specs := Catalog()
	if len(specs) != 20 {
		t.Fatalf("catalog has %d applications, want 20", len(specs))
	}
	suites := map[string]int{}
	for _, s := range specs {
		suites[s.Suite]++
		if s.Name == "" || s.Description == "" || s.Generate == nil {
			t.Errorf("incomplete spec %+v", s)
		}
	}
	want := map[string]int{"Rodinia": 7, "Polybench": 6, "Mars": 2, "Tango": 3, "Pannotia": 2}
	if !reflect.DeepEqual(suites, want) {
		t.Errorf("suite counts = %v, want %v", suites, want)
	}
}

func TestPaperMemoryBoundApps(t *testing.T) {
	// The paper singles out NW, ADI, SM and GRU as the applications with
	// >1000x Swift-Sim-Memory speedup; they must be marked memory-bound.
	for _, name := range []string{"NW", "ADI", "SM", "GRU"} {
		s, ok := ByName(name)
		if !ok {
			t.Errorf("%s missing from catalog", name)
			continue
		}
		if !s.MemoryBound {
			t.Errorf("%s must be MemoryBound", name)
		}
	}
}

func TestAllAppsValidate(t *testing.T) {
	for _, s := range Catalog() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			app := s.Generate(1.0)
			if err := app.Validate(); err != nil {
				t.Fatalf("generated invalid trace: %v", err)
			}
			if app.Name != s.Name || app.Suite != s.Suite {
				t.Errorf("app identity %s/%s, want %s/%s", app.Name, app.Suite, s.Name, s.Suite)
			}
			n := app.Insts()
			if n < 1000 {
				t.Errorf("only %d instructions; too small to be meaningful", n)
			}
			if n > 5_000_000 {
				t.Errorf("%d instructions; default scale too large", n)
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range []string{"BFS", "GEMM", "SM", "GRU", "SSSP"} {
		a1, err := Generate(name, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		a2, _ := Generate(name, 1.0)
		if !reflect.DeepEqual(a1, a2) {
			t.Errorf("%s: generator not deterministic", name)
		}
	}
}

func TestScaleGrowsWork(t *testing.T) {
	for _, name := range []string{"HOTSPOT", "ADI", "ALEXNET"} {
		small, err := Generate(name, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		big, err := Generate(name, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		if big.Insts() <= small.Insts() {
			t.Errorf("%s: scale 2.0 (%d insts) not larger than scale 0.5 (%d insts)",
				name, big.Insts(), small.Insts())
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("NOPE", 1.0); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := Generate("BFS", 0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := Generate("BFS", -1); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestMemoryBoundAppsAreLoadHeavy(t *testing.T) {
	// Memory-bound generators must have a higher global-memory
	// instruction fraction than the compute-bound ones.
	memFrac := func(app *trace.App) float64 {
		memOps, total := 0, 0
		for _, k := range app.Kernels {
			for _, b := range k.Blocks {
				for _, w := range b.Warps {
					for _, in := range w {
						total++
						if in.Op.IsGlobalMem() {
							memOps++
						}
					}
				}
			}
		}
		return float64(memOps) / float64(total)
	}
	sm, _ := Generate("SM", 1.0)
	alex, _ := Generate("ALEXNET", 1.0)
	if memFrac(sm) <= memFrac(alex) {
		t.Errorf("SM mem fraction %.2f not above ALEXNET %.2f", memFrac(sm), memFrac(alex))
	}
}

func TestTracesRoundTripSGT(t *testing.T) {
	// Generated traces must survive the frontend's serialize/parse path.
	app, err := Generate("PATHFINDER", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, app); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, app) {
		t.Error("SGT round trip mismatch")
	}
}

func TestAddressHelpers(t *testing.T) {
	var b wb
	c := b.coalesced(0x1000, 4)
	if len(c) != trace.WarpSize || c[0] != 0x1000 || c[31] != 0x1000+31*4 {
		t.Errorf("coalesced = %v", c[:3])
	}
	s := b.strided(0x1000, 512)
	if s[1]-s[0] != 512 {
		t.Errorf("strided stride = %d", s[1]-s[0])
	}
	bc := b.broadcast(0x42)
	for _, a := range bc {
		if a != 0x42 {
			t.Fatal("broadcast addresses differ")
		}
	}
	cm := b.coalescedMasked(0b101, 0, 4)
	if len(cm) != 2 || cm[0] != 0 || cm[1] != 8 {
		t.Errorf("coalescedMasked = %v", cm)
	}
	r := newRNG(1)
	g := b.gather(&r, 0x1000, 4096)
	for _, a := range g {
		if a < 0x1000 || a >= 0x1000+4096 || a%4 != 0 {
			t.Fatalf("gather address %#x out of range or misaligned", a)
		}
	}
	r = newRNG(1)
	gm := b.gatherMasked(&r, 0xf, 0x1000, 4096)
	if len(gm) != 4 {
		t.Errorf("gatherMasked length = %d, want 4", len(gm))
	}
}

func TestDivergentMask(t *testing.T) {
	r := newRNG(7)
	for i := 0; i < 100; i++ {
		m := divergentMask(&r, 0.3)
		if m == 0 {
			t.Fatal("divergentMask returned empty mask")
		}
	}
	// frac=0 still yields at least one active lane.
	if r := newRNG(1); divergentMask(&r, 0) == 0 {
		t.Fatal("zero-fraction mask empty")
	}
}

func TestScaleDim(t *testing.T) {
	if scaleDim(10, 0.01, 2) != 2 {
		t.Error("floor not applied")
	}
	if scaleDim(10, 2, 1) != 20 {
		t.Error("scaling wrong")
	}
}

// TestQuickMaskedHelpersAgree: for any mask, the masked helpers return
// exactly one address per active lane.
func TestQuickMaskedHelpersAgree(t *testing.T) {
	f := func(mask uint32, seed uint64) bool {
		if mask == 0 {
			mask = 1
		}
		want := 0
		for i := 0; i < 32; i++ {
			if mask&(1<<uint(i)) != 0 {
				want++
			}
		}
		var b wb
		cm := b.coalescedMasked(mask, 0x1000, 4)
		r := newRNG(seed)
		gm := b.gatherMasked(&r, mask, 0x1000, 1<<20)
		return len(cm) == want && cap(cm) == want && len(gm) == want && cap(gm) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWarpBuilderRegisterRotation(t *testing.T) {
	var b wb
	seen := map[trace.Reg]bool{}
	for i := 0; i < 64; i++ {
		r := b.nextReg()
		if r == trace.RegNone || r > 31 {
			t.Fatalf("register %d out of range 1..31", r)
		}
		seen[r] = true
	}
	if len(seen) != 31 {
		t.Errorf("rotation covered %d registers, want 31", len(seen))
	}
}

// panickyRuns names each run's panicking application afresh, so a -count
// above 1 does not find the last run's apps in the memo.
var panickyRuns int

// TestGeneratePanicDoesNotPoison: a generator that panics fails its own
// caller and leaves no cache entry behind, so the next Generate of that
// (name, scale) runs the generator again instead of returning a nil app
// with a nil error, which is what the sync.Once it replaced did (a Once
// counts a panicking function as done). A caller that was already waiting
// on the panicking generation generates for itself too.
func TestGeneratePanicDoesNotPoison(t *testing.T) {
	panickyRuns++
	name := fmt.Sprintf("PANICKY%d", panickyRuns)
	var mu sync.Mutex
	calls := map[float64]int{}
	entered, release := make(chan struct{}), make(chan struct{})
	catalog = append(catalog, Spec{Name: name, Suite: "test", Generate: func(scale float64) *trace.App {
		mu.Lock()
		calls[scale]++
		first := calls[scale] == 1
		mu.Unlock()
		if first && scale == 2 {
			close(entered)
			<-release
		}
		if first {
			panic("generator bug")
		}
		return &trace.App{Name: name, Suite: "test"}
	}})
	defer func() { catalog = catalog[:len(catalog)-1] }()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic did not reach the generating caller")
			}
		}()
		Generate(name, 1)
	}()
	if app, err := Generate(name, 1); err != nil || app == nil {
		t.Fatalf("the caller after a panic got (%v, %v), want a generated app", app, err)
	}
	if app, _ := Generate(name, 1); app == nil || calls[1] != 2 {
		t.Errorf("a retained app was regenerated: %d generator calls, want 2", calls[1])
	}

	// A waiter: the first generation holds its entry until the second
	// caller has had every chance to find it, then panics.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }()
		Generate(name, 2)
	}()
	<-entered
	waiter := make(chan *trace.App)
	go func() { app, _ := Generate(name, 2); waiter <- app }()
	close(release)
	wg.Wait()
	if app := <-waiter; app == nil {
		t.Error("the waiter on a panicked generation got a nil app")
	}
}

// TestGenerateAllocationCeiling holds generating the whole catalog at the
// benchmark's scale 0.5 to a ceiling about 25% above the 905 allocations it
// measures with one arena and builder per app and strided lanes (per-kernel
// arenas made 1,146; every lane listed 1,413; one allocation per memory
// instruction, as before the arenas, about 131,500).
func TestGenerateAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 1130
	allocs := testing.AllocsPerRun(1, func() {
		for _, s := range Catalog() {
			s.Generate(0.5)
		}
	})
	if allocs > ceiling {
		t.Errorf("generating the catalog at scale 0.5 made %.0f allocations, ceiling %d", allocs, ceiling)
	}
}

// TestGenerateAllocationsTrackStructure: an app's allocations are bounded
// at every scale by its kernels, its blocks and the chunks its trace fills,
// not by its instructions. A kernel pays for its record and block table,
// the app for its builder's scratch and its arena's first chunks, a block
// for its warp table, and the instructions and lane addresses for the
// arena's chunks of 1,024 and 8,192 elements, with a quarter more for the
// tails that warps and lanes too long for them leave behind. One more allocation per warp, let alone one per memory
// instruction, breaks the bound for every app at scale 4.
func TestGenerateAllocationsTrackStructure(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, s := range Catalog() {
		for _, scale := range []float64{0.5, 2, 4} {
			var app *trace.App
			allocs := testing.AllocsPerRun(1, func() { app = s.Generate(scale) })
			kernels, blocks, insts, lanes := len(app.Kernels), 0, 0, 0
			for _, k := range app.Kernels {
				blocks += k.NumBlocks()
				for _, b := range k.Blocks {
					for _, w := range b.Warps {
						insts += len(w)
						for i := range w {
							lanes += len(w[i].Addrs)
						}
					}
				}
			}
			chunks := insts/1024 + lanes/8192
			if bound := 24*kernels + 2*blocks + 5*chunks/4; allocs > float64(bound) {
				t.Errorf("%s at scale %g: %.0f allocations for %d kernels, %d blocks, %d instructions, %d lanes; bound %d",
					s.Name, scale, allocs, kernels, blocks, insts, lanes, bound)
			}
		}
	}
}
