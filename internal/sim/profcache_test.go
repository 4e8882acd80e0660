package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/reuse"
	"swiftsim/internal/smcore"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// copyApp deep-copies a trace down to the instruction slices and lane
// store, simulating a separately-parsed copy of the same .sgt file
// (distinct pointers, equal content).
func copyApp(a *trace.App) *trace.App {
	out := &trace.App{Name: a.Name, Suite: a.Suite}
	var arena trace.Arena
	var lanes [trace.WarpSize]uint64
	for _, k := range a.Kernels {
		nk := &trace.Kernel{
			Name: k.Name, Grid: k.Grid, Block: k.Block,
			RegsPerThread: k.RegsPerThread, SharedMemPerBlock: k.SharedMemPerBlock,
		}
		for _, b := range k.Blocks {
			nb := trace.BlockTrace{}
			for _, w := range b.Warps {
				nw := make(trace.WarpTrace, len(w))
				copy(nw, w)
				for i := range nw {
					if nw[i].Op.IsMem() {
						arena.SetLanes(&nw[i], k.Store.Lanes(&w[i], &lanes))
					}
				}
				nb.Warps = append(nb.Warps, nw)
			}
			nk.Blocks = append(nk.Blocks, nb)
		}
		nk.Store = arena.Store()
		out.Kernels = append(out.Kernels, nk)
	}
	return out
}

// TestProfileCacheHitsAcrossCopies: the profile memoization is keyed by
// trace content, so two separately-built copies of the same application
// share one cache entry (the pointer-keyed scheme could never hit here).
func TestProfileCacheHitsAcrossCopies(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "BFS", 0.1)
	dup := copyApp(app)
	if app == dup {
		t.Fatal("copyApp returned the same pointer")
	}

	before := phaseTwo.Stats().Entries

	p1 := profileCached(app, gpu, FunctionalCaches)
	p2 := profileCached(dup, gpu, FunctionalCaches)
	if p1 != p2 {
		t.Error("copies of the same trace produced distinct profile instances")
	}

	if grown := phaseTwo.Stats().Entries - before; grown > 1 {
		t.Errorf("profile cache grew by %d entries for two copies of one trace, want at most 1", grown)
	}
}

// TestProfileCacheDistinguishesContent: different traces (and different
// geometries) must not collide.
func TestProfileCacheDistinguishesContent(t *testing.T) {
	gpu := smallGPU()
	a := mustApp(t, "BFS", 0.1)
	b := mustApp(t, "GEMM", 0.1)
	if profileCached(a, gpu, FunctionalCaches) == profileCached(b, gpu, FunctionalCaches) {
		t.Error("distinct applications shared a profile instance")
	}
	other := gpu
	other.L1.Sets *= 2
	if profileCached(a, gpu, FunctionalCaches) == profileCached(a, other, FunctionalCaches) {
		t.Error("distinct cache geometries shared a profile instance")
	}
	// A field no profiler reads is not part of either key.
	slow := gpu
	slow.L2.HitLatency *= 3
	if profileCached(a, gpu, FunctionalCaches) != profileCached(a, slow, FunctionalCaches) {
		t.Error("GPUs differing only in L2.HitLatency did not share a profile instance")
	}
}

// TestProfileCachePartitionIsMinOfSMsAndBlocks: over a trace whose largest
// kernel has 5 blocks, 4 SMs and 6 SMs partition the blocks differently and
// must not share phase one; 6 and 9 SMs both give every block its own SM
// and must.
func TestProfileCachePartitionIsMinOfSMsAndBlocks(t *testing.T) {
	app := randomApp(coldRand(), []int{3, 5, 2})
	gpu := smallGPU()
	before := phaseOne.Stats().Computes
	profiles := map[int]*reuse.Profile{}
	for _, sms := range []int{4, 6, 9} {
		gpu.NumSMs = sms
		profiles[sms] = profileCached(app, gpu, FunctionalCaches)
		if want := reuse.ProfileApp(app, gpu); !reflect.DeepEqual(profiles[sms], want) {
			t.Errorf("NumSMs %d: memoised profile differs from a fresh one", sms)
		}
	}
	if n := phaseOne.Stats().Computes - before; n != 2 {
		t.Errorf("phase one ran %d times for NumSMs 4, 6, 9 over a 5-block kernel, want 2", n)
	}
	if profiles[6] != profiles[9] {
		t.Error("NumSMs 6 and 9 did not share a profile instance")
	}
	if profiles[4] == profiles[6] {
		t.Error("NumSMs 4 and 6 shared a profile instance")
	}
}

// coldSeeds counts the seeds coldRand hands out. The profile memos are
// process-wide and keyed by trace content, so a test that counts their
// computes needs traces no earlier test built, and go test -count=2 runs
// every test twice in one process.
var coldSeeds atomic.Int64

// coldRand returns a generator whose seed no earlier call drew, for the
// traces of a test that needs the profile memos cold.
func coldRand() *rand.Rand { return rand.New(rand.NewSource(1000 + coldSeeds.Add(1))) }

// randomApp builds a seeded application with the given block count per
// kernel: two warps a block, each a random mix of arithmetic and global
// loads and stores whose PCs and addresses are drawn from small pools, so
// static instructions recur across warps and sectors are reused across
// instructions, blocks and kernels.
func randomApp(r *rand.Rand, blocks []int) *trace.App {
	app := &trace.App{Name: fmt.Sprintf("rand%d", r.Int63()), Suite: "random"}
	var arena trace.Arena
	lanes := make([]uint64, 32)
	for ki, nb := range blocks {
		k := &trace.Kernel{
			Name: fmt.Sprintf("k%d", ki), Grid: trace.Dim3{X: nb, Y: 1, Z: 1}, Block: trace.Dim3{X: 64, Y: 1, Z: 1},
			RegsPerThread: 16,
		}
		for b := 0; b < nb; b++ {
			var bt trace.BlockTrace
			for w := 0; w < 2; w++ {
				var wt trace.WarpTrace
				for i, n := 0, 20+r.Intn(40); i < n; i++ {
					in := trace.Inst{PC: uint64(8 * r.Intn(24)), Op: trace.OpInt, Dst: trace.Reg(1 + r.Intn(32)), ActiveMask: 0xffffffff}
					if r.Intn(3) > 0 {
						in.Op = trace.OpLoadGlobal
						if r.Intn(4) == 0 {
							in.Op = trace.OpStoreGlobal
						}
						// Unit-stride, strided or scattered lanes over a
						// 256-line pool.
						base, stride := uint64(r.Intn(256))*128, uint64([]int{4, 4, 32, 128}[r.Intn(4)])
						for l := range lanes {
							lanes[l] = base + uint64(l)*stride
							if r.Intn(16) == 0 {
								lanes[l] = uint64(r.Intn(256)) * 128
							}
						}
						arena.SetLanes(&in, lanes)
					}
					wt = append(wt, in)
				}
				wt = append(wt, trace.Inst{PC: 8 * 24, Op: trace.OpExit, ActiveMask: 0xffffffff})
				bt.Warps = append(bt.Warps, wt)
			}
			k.Blocks = append(k.Blocks, bt)
		}
		k.NumberMem()
		k.Store = arena.Store()
		app.Kernels = append(app.Kernels, k)
	}
	return app
}

func maxBlocks(app *trace.App) int {
	n := 0
	for _, k := range app.Kernels {
		if len(k.Blocks) > n {
			n = len(k.Blocks)
		}
	}
	return n
}

func freshProfile(app *trace.App, gpu config.GPU, src HitRateSource) *reuse.Profile {
	if src == ReuseDistance {
		return reuse.ProfileAppReuseDistance(app, gpu)
	}
	return reuse.ProfileApp(app, gpu)
}

// TestProfileCacheMatchesFreshProfiles is the memo's equivalence check: for
// the 20 catalog apps and a seeded set of random traces, over a geometry
// matrix (NumSMs below, at and above the largest kernel's block count; L2
// sets, ways and partitions varied; both sources; every replacement
// policy), the memoised profile equals a fresh unmemoised one. The design
// points are asked for in shuffled order, so requests that find phase one
// in the memo are interleaved with requests that do not.
func TestProfileCacheMatchesFreshProfiles(t *testing.T) {
	type point struct {
		app *trace.App
		gpu config.GPU
		src HitRateSource
	}
	var apps []*trace.App
	for _, name := range workload.Names() {
		apps = append(apps, mustApp(t, name, 0.05))
	}
	r := coldRand()
	for i := 0; i < 6; i++ {
		apps = append(apps, randomApp(r, []int{1 + r.Intn(6), 1 + r.Intn(12), 1 + r.Intn(3)}))
	}
	var points []point
	for ai, app := range apps {
		if err := app.Validate(); err != nil {
			t.Fatal(err)
		}
		mb := maxBlocks(app)
		sms := []int{mb, mb + 3}
		if mb > 1 {
			sms = append(sms, (mb+1)/2)
		}
		for _, n := range sms {
			for _, l2 := range []struct{ setsMul, waysMul, parts int }{{1, 1, 4}, {2, 1, 4}, {1, 2, 2}, {1, 1, 3}} {
				for _, src := range []HitRateSource{FunctionalCaches, ReuseDistance} {
					gpu := smallGPU()
					gpu.NumSMs = n
					// Small caches, so that capacity and the policy matter
					// to traces this size.
					gpu.L1.Sets, gpu.L2.Sets = 4, 16*l2.setsMul
					gpu.L2.Ways *= l2.waysMul
					gpu.MemPartitions = l2.parts
					repl := []config.Replacement{config.LRU, config.FIFO, config.Random}
					gpu.L1.Replacement = repl[(ai+n)%3]
					gpu.L2.Replacement = repl[(ai+l2.parts)%3]
					points = append(points, point{app, gpu, src})
				}
			}
		}
	}
	r.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	ones, twos := phaseOne.Stats().Computes, phaseTwo.Stats().Computes
	for _, p := range points {
		got := profileCached(p.app, p.gpu, p.src)
		if want := freshProfile(p.app, p.gpu, p.src); !reflect.DeepEqual(got, want) {
			t.Errorf("%s NumSMs=%d L2=%dx%dx%d src=%v: memoised profile differs from a fresh one",
				p.app.Name, p.gpu.NumSMs, p.gpu.L2.Sets, p.gpu.L2.Ways, p.gpu.MemPartitions, p.src)
		}
	}
	ones, twos = phaseOne.Stats().Computes-ones, phaseTwo.Stats().Computes-twos
	// NumSMs at and above the block count share both keys; the L2 variants
	// of one L1 geometry share phase one.
	if twos >= len(points) || ones >= twos {
		t.Errorf("%d design points ran phase two %d times and phase one %d times; want fewer of each in turn",
			len(points), twos, ones)
	}
}

// leafPaths appends the dotted path of every leaf field under v, depth
// first.
func leafPaths(paths []string, prefix string, v reflect.Value) []string {
	if v.Kind() != reflect.Struct {
		return append(paths, strings.TrimPrefix(prefix, "."))
	}
	for i := 0; i < v.NumField(); i++ {
		paths = leafPaths(paths, prefix+"."+v.Type().Field(i).Name, v.Field(i))
	}
	return paths
}

// TestProfileKeysReflectEveryFieldRead walks config.GPU leaf by leaf.
// Perturbing a field must change the phase-one or the phase-two key, or
// the field is on the not-read list below and a fresh profile is unchanged
// by the perturbation: a field a profiler starts reading cannot stay out
// of the keys without failing here.
func TestProfileKeysReflectEveryFieldRead(t *testing.T) {
	notRead := []string{
		"Name", "SM.",
		"L1.Banks", "L1.MSHREntries", "L1.MSHRMaxMerge", "L1.HitLatency", "L1.WriteBack", "L1.Throughput",
		"L2.Banks", "L2.MSHREntries", "L2.MSHRMaxMerge", "L2.HitLatency", "L2.WriteBack", "L2.Throughput",
		"DRAMLatency", "DRAMBanksPerPartition", "DRAMRowHitLatency", "NoCLatency", "NoCFlitBytes", "NoCTopology",
	}
	// Stack distances are LRU by construction.
	notReadByDistance := []string{"L1.Replacement", "L2.Replacement"}
	listed := func(list []string, path string) bool {
		for _, p := range list {
			if path == p || (strings.HasSuffix(p, ".") && strings.HasPrefix(path, p)) {
				return true
			}
		}
		return false
	}

	app := randomApp(rand.New(rand.NewSource(11)), []int{4, 12, 2})
	base := smallGPU()
	base.NumSMs = 4 // below the largest kernel's 12 blocks, so doubling it moves blocks
	base.L1.Sets, base.L2.Sets = 4, 16
	keys := func(gpu config.GPU, src HitRateSource) phaseTwoKey {
		distance := src == ReuseDistance
		return phaseTwoKey{
			one: phaseOneKey{app: trace.ContentHash(app), geom: reuse.L1GeometryOf(app, gpu, distance)},
			l2:  reuse.L2LevelOf(gpu, distance),
		}
	}
	for _, src := range []HitRateSource{FunctionalCaches, ReuseDistance} {
		baseKeys, baseProfile := keys(base, src), freshProfile(app, base, src)
		for _, path := range leafPaths(nil, "", reflect.ValueOf(base)) {
			gpu := base
			v := reflect.ValueOf(&gpu).Elem()
			for _, name := range strings.Split(path, ".") {
				v = v.FieldByName(name)
			}
			switch v.Kind() {
			case reflect.Int:
				switch {
				case v.Type() == reflect.TypeOf(config.LRU):
					v.SetInt(int64(config.FIFO))
				case v.Int() == 0:
					v.SetInt(1)
				default:
					v.SetInt(2 * v.Int()) // geometry stays a power of two
				}
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.String:
				v.SetString(v.String() + "x")
			default:
				t.Fatalf("%s: no perturbation for kind %v", path, v.Kind())
			}
			if reflect.DeepEqual(gpu, base) {
				t.Fatalf("%s: perturbation changed nothing", path)
			}
			exempt := listed(notRead, path) || (src == ReuseDistance && listed(notReadByDistance, path))
			if keys(gpu, src) != baseKeys {
				if exempt {
					t.Errorf("%s (src %v) is on the not-read list but is part of a key", path, src)
				}
				continue
			}
			if !exempt {
				t.Errorf("%s (src %v) is in neither key and not on the not-read list", path, src)
			}
			if !reflect.DeepEqual(freshProfile(app, gpu, src), baseProfile) {
				t.Errorf("%s (src %v) is in neither key, but a fresh profile reads it", path, src)
			}
		}
	}
}

// TestProfileCacheSingleFlight: eight goroutines ask for one trace under
// three geometries that differ only below the L1, all at once. Phase one
// runs exactly once, phase two once per geometry, and every caller of a
// geometry gets the same instance. Run under -race in tier 1.
func TestProfileCacheSingleFlight(t *testing.T) {
	app := randomApp(coldRand(), []int{6, 10})
	gpus := make([]config.GPU, 3)
	for i := range gpus {
		gpus[i] = smallGPU()
		gpus[i].L2.Sets <<= i
		gpus[i].MemPartitions += i
	}
	ones, twos := phaseOne.Stats().Computes, phaseTwo.Stats().Computes
	got := make([]*reuse.Profile, 8)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = profileCached(app, gpus[i%len(gpus)], FunctionalCaches)
		}(i)
	}
	close(start)
	wg.Wait()
	if n := phaseOne.Stats().Computes - ones; n != 1 {
		t.Errorf("phase one ran %d times, want exactly 1", n)
	}
	if n := phaseTwo.Stats().Computes - twos; n != len(gpus) {
		t.Errorf("phase two ran %d times, want %d", n, len(gpus))
	}
	for i, p := range got {
		if p != got[i%len(gpus)] {
			t.Errorf("caller %d got its own instance of geometry %d's profile", i, i%len(gpus))
		}
		if want := reuse.ProfileApp(app, gpus[i%len(gpus)]); !reflect.DeepEqual(p, want) {
			t.Errorf("caller %d: memoised profile differs from a fresh one", i)
		}
	}
}

// TestWarmRunAllocatesOnlyItsAssembly: once warm (the trace generated, its
// profile memoised), a whole run allocates what building the simulator and
// making blocks resident costs (a few slices per module class, a wake
// closure per ticking module, warps, and in-flight records by the chunk)
// and nothing per instruction or per memory request. Allocation counts
// repeat exactly, so each ceiling sits about 25% above its measured count
// and holds on any host; one closure or buffer per instruction back on the
// issue path adds the run's instruction count, which takes every row past
// its ceiling.
func TestWarmRunAllocatesOnlyItsAssembly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	wide := smallGPU()
	wide.NumSMs = 16
	wide.MemPartitions = 8
	for _, row := range []struct {
		kind    Kind
		app     string
		scale   float64
		gpu     config.GPU
		ceiling float64
	}{
		{Memory, "BFS", 1.0, smallGPU(), 489}, // measured 391
		{Detailed, "SM", 0.4, wide, 625},      // measured 492
		{Basic, "SM", 0.4, wide, 594},         // measured 467
		{Memory, "SM", 0.4, wide, 356},        // measured 285
	} {
		t.Run(fmt.Sprintf("%s/%s", row.kind, row.app), func(t *testing.T) {
			app := mustApp(t, row.app, row.scale)
			var insts uint64
			run := func() {
				res, err := Run(app, row.gpu, Options{Kind: row.kind})
				if err != nil {
					t.Fatal(err)
				}
				insts = res.Instructions
			}
			run()
			allocs := testing.AllocsPerRun(5, run)
			t.Logf("%v allocations for %d instructions", allocs, insts)
			if allocs > row.ceiling {
				t.Errorf("a warm %s run of %d instructions allocated %v objects, ceiling %v", row.kind, insts, allocs, row.ceiling)
			}
		})
	}
}

// TestRelaxedRunAllocatesLikeExact: a relaxed run's epoch boundary folds
// and sorts its ports' traffic on every folded cycle without allocating, so
// a warm Basic BFS run at EpochCycles 8 allocates at most 1.5× what the
// same run at EpochCycles 1 does: its boundary and segment are a few
// records more, not a few per fold (measured 1,000 against 736). A sort
// that allocates per fold, as sort.SliceStable's swapper and closure did,
// made it 7,019.
func TestRelaxedRunAllocatesLikeExact(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	app := mustApp(t, "BFS", 0.5)
	gpu := config.RTX2080Ti()
	allocs := func(k int) float64 {
		run := func() {
			if _, err := Run(app, gpu, Options{Kind: Basic, EpochCycles: k}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(3, run)
	}
	exact, relaxed := allocs(1), allocs(8)
	t.Logf("k=1: %v allocations, k=8: %v", exact, relaxed)
	if relaxed > 1.5*exact {
		t.Errorf("a warm k=8 run allocated %v objects, over 1.5× the k=1 run's %v", relaxed, exact)
	}
}

// TestSampledProfileKeepsOriginalIndices: a sampled kernel shares its
// original kernel's instructions, MemIndex included, so the sampled app's
// profile runs its rows out to the original numbering and every simulated
// memory instruction finds its own facts at its index. The sampled app
// departs from the numbering Validate requires, so it does not share a
// content hash, or a profile, with a copy renumbered from 0; and a sampled
// Memory run completes over it.
func TestSampledProfileKeepsOriginalIndices(t *testing.T) {
	gpu := smallGPU()
	gpu.NumSMs = 1                 // a short first wave, so the tail is sampled
	app := mustApp(t, "GEMM", 2.0) // shared-memory tiles and global loads
	_, sampled := newSampler(app, gpu, Sampling{Enabled: true})
	prof := profileCached(sampled, gpu, FunctionalCaches)
	truncated := 0
	var lanes [trace.WarpSize]uint64
	for ki, k := range sampled.Kernels {
		if len(k.Blocks) < len(app.Kernels[ki].Blocks) {
			truncated++
		}
		simulated, last := 0, -1
		for bi := range k.Blocks {
			for _, w := range k.Blocks[bi].Warps {
				for i := range w {
					in := &w[i]
					if !in.Op.IsMem() {
						continue
					}
					simulated++
					last = max(last, int(in.MemIndex))
					f := prof.Facts[ki][in.MemIndex]
					switch {
					case in.Op.IsSharedMem():
						if want := smcore.SharedBankConflicts(k.Store.Lanes(in, &lanes)); int(f.N) != want {
							t.Fatalf("kernel %d MemIndex %d: bank degree %d, want %d", ki, in.MemIndex, f.N, want)
						}
					default:
						if want := len(smcore.CoalesceInto(nil, k.Store.Lanes(in, &lanes), gpu.L1.SectorBytes)); int(f.N) != want {
							t.Fatalf("kernel %d MemIndex %d: %d sectors, want %d", ki, in.MemIndex, f.N, want)
						}
						if prof.ByID[ki][f.ID] != prof.PerPC[reuse.Key{Kernel: ki, PC: in.PC}] {
							t.Fatalf("kernel %d MemIndex %d: id %d names other rates than its PC's", ki, in.MemIndex, f.ID)
						}
					}
				}
			}
		}
		if len(prof.Facts[ki]) != last+1 {
			t.Errorf("kernel %d: %d fact rows, want the largest index %d + 1", ki, len(prof.Facts[ki]), last)
		}
		if len(k.Blocks) < len(app.Kernels[ki].Blocks) && simulated >= len(prof.Facts[ki]) {
			t.Errorf("kernel %d: sampled, yet its %d memory instructions fill all %d rows", ki, simulated, len(prof.Facts[ki]))
		}
	}
	if truncated == 0 {
		t.Fatal("no kernel was sampled; the test needs a larger grid")
	}

	renumbered := copyApp(sampled)
	for _, k := range renumbered.Kernels {
		k.NumberMem()
	}
	if trace.ContentHash(renumbered) == trace.ContentHash(sampled) {
		t.Error("the sampled app and its renumbered copy share a content hash")
	}
	if profileCached(renumbered, gpu, FunctionalCaches) == prof {
		t.Error("the sampled app and its renumbered copy share a profile")
	}

	if _, err := Run(app, gpu, Options{Kind: Memory, Sampling: Sampling{Enabled: true}}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMemoryRunsShareOneProfile: runs of one trace and geometry
// share one memoised, immutable profile, while the powers Eq. 1 fills in as
// it issues belong to each run. Four runs start at once on a trace no other
// test profiles, so they profile it once between them and then fill their
// powers side by side; each must produce a later serial run's bytes. Under
// -race (make tier1) a table shared by mistake is reported as a race.
func TestConcurrentMemoryRunsShareOneProfile(t *testing.T) {
	gpu := smallGPU()
	app := randomApp(coldRand(), []int{6, 10, 4})
	opts := Options{Kind: Memory}
	twos := phaseTwo.Stats().Computes
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]string, 4)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := Run(app, gpu, opts)
			if errs[i] = err; err == nil {
				got[i] = resultBytes(res)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := phaseTwo.Stats().Computes - twos; n != 1 {
		t.Errorf("four concurrent runs of one trace profiled it %d times, want 1", n)
	}
	serial, err := Run(app, gpu, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != resultBytes(serial) {
			t.Errorf("concurrent run %d differs from the serial one", i)
		}
	}
}

// TestAllocationsDoNotGrowWithModuleCount: a run allocates per module
// class, not per module instance (DESIGN.md §11.2), so quadrupling the SMs
// and memory partitions of a warm run adds at most a few objects per added
// SM: the engine's wake closure for each registered ticker, an SM's defer
// callback and report name. Building every unit, cache, partition and meter
// one by one cost 12.6 (Memory), 37.7 (L2Hybrid), 55.1 (Basic) and 108.3
// (Detailed) objects per added SM here.
func TestAllocationsDoNotGrowWithModuleCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 6 // allocations per added SM
	app := mustApp(t, "SM", 0.4)
	sized := func(sms, parts int) config.GPU {
		g := config.RTX2080Ti()
		g.NumSMs, g.MemPartitions = sms, parts
		return g
	}
	narrow, wide := sized(16, 8), sized(64, 32)
	for _, kind := range []Kind{Memory, L2Hybrid, Basic, Detailed} {
		t.Run(kind.String(), func(t *testing.T) {
			allocs := func(gpu config.GPU) float64 {
				run := func() {
					if _, err := Run(app, gpu, Options{Kind: kind}); err != nil {
						t.Fatal(err)
					}
				}
				run()
				return testing.AllocsPerRun(5, run)
			}
			n, w := allocs(narrow), allocs(wide)
			per := (w - n) / float64(wide.NumSMs-narrow.NumSMs)
			t.Logf("%v allocations at %d SMs, %v at %d: %.2f per added SM", n, narrow.NumSMs, w, wide.NumSMs, per)
			if per > ceiling {
				t.Errorf("%.2f allocations per added SM, ceiling %d", per, ceiling)
			}
		})
	}
}
