package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/reuse"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// copyApp deep-copies a trace down to the instruction slices, simulating a
// separately-parsed copy of the same .sgt file (distinct pointers, equal
// content).
func copyApp(a *trace.App) *trace.App {
	out := &trace.App{Name: a.Name, Suite: a.Suite}
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

	before := phaseTwo.len()

	p1 := profileCached(app, gpu, FunctionalCaches)
	p2 := profileCached(dup, gpu, FunctionalCaches)
	if p1 != p2 {
		t.Error("copies of the same trace produced distinct profile instances")
	}

	if grown := phaseTwo.len() - before; grown > 1 {
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
	app := randomApp(rand.New(rand.NewSource(41)), []int{3, 5, 2})
	gpu := smallGPU()
	before := phaseOne.computes()
	profiles := map[int]*reuse.Profile{}
	for _, sms := range []int{4, 6, 9} {
		gpu.NumSMs = sms
		profiles[sms] = profileCached(app, gpu, FunctionalCaches)
		if want := reuse.ProfileApp(app, gpu); !reflect.DeepEqual(profiles[sms], want) {
			t.Errorf("NumSMs %d: memoised profile differs from a fresh one", sms)
		}
	}
	if n := phaseOne.computes() - before; n != 2 {
		t.Errorf("phase one ran %d times for NumSMs 4, 6, 9 over a 5-block kernel, want 2", n)
	}
	if profiles[6] != profiles[9] {
		t.Error("NumSMs 6 and 9 did not share a profile instance")
	}
	if profiles[4] == profiles[6] {
		t.Error("NumSMs 4 and 6 shared a profile instance")
	}
}

// len is the number of keys the memo holds, in flight or retained.
func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// computes is the number of compute calls the memo has started.
func (m *memo[K, V]) computes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.computed
}

// randomApp builds a seeded application with the given block count per
// kernel: two warps a block, each a random mix of arithmetic and global
// loads and stores whose PCs and addresses are drawn from small pools, so
// static instructions recur across warps and sectors are reused across
// instructions, blocks and kernels.
func randomApp(r *rand.Rand, blocks []int) *trace.App {
	app := &trace.App{Name: fmt.Sprintf("rand%d", r.Int63()), Suite: "random"}
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
						in.Addrs = make([]uint64, 32)
						for l := range in.Addrs {
							in.Addrs[l] = base + uint64(l)*stride
							if r.Intn(16) == 0 {
								in.Addrs[l] = uint64(r.Intn(256)) * 128
							}
						}
					}
					wt = append(wt, in)
				}
				wt = append(wt, trace.Inst{PC: 8 * 24, Op: trace.OpExit, ActiveMask: 0xffffffff})
				bt.Warps = append(bt.Warps, wt)
			}
			k.Blocks = append(k.Blocks, bt)
		}
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
	r := rand.New(rand.NewSource(7))
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
	ones, twos := phaseOne.computes(), phaseTwo.computes()
	for _, p := range points {
		got := profileCached(p.app, p.gpu, p.src)
		if want := freshProfile(p.app, p.gpu, p.src); !reflect.DeepEqual(got, want) {
			t.Errorf("%s NumSMs=%d L2=%dx%dx%d src=%v: memoised profile differs from a fresh one",
				p.app.Name, p.gpu.NumSMs, p.gpu.L2.Sets, p.gpu.L2.Ways, p.gpu.MemPartitions, p.src)
		}
	}
	ones, twos = phaseOne.computes()-ones, phaseTwo.computes()-twos
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
		"L1.Banks", "L1.MSHREntries", "L1.MSHRMaxMerge", "L1.HitLatency", "L1.WriteBack", "L1.Streaming", "L1.Throughput",
		"L2.Banks", "L2.MSHREntries", "L2.MSHRMaxMerge", "L2.HitLatency", "L2.WriteBack", "L2.Streaming", "L2.Throughput",
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
	app := randomApp(rand.New(rand.NewSource(23)), []int{6, 10})
	gpus := make([]config.GPU, 3)
	for i := range gpus {
		gpus[i] = smallGPU()
		gpus[i].L2.Sets <<= i
		gpus[i].MemPartitions += i
	}
	ones, twos := phaseOne.computes(), phaseTwo.computes()
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
	if n := phaseOne.computes() - ones; n != 1 {
		t.Errorf("phase one ran %d times, want exactly 1", n)
	}
	if n := phaseTwo.computes() - twos; n != len(gpus) {
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

// TestMemoPanicDoesNotPoison: a compute that panics fails its own caller
// and leaves no entry behind, so the next caller of the key computes again
// instead of receiving the zero value; a caller that was already waiting
// on the panicking computation does the same.
func TestMemoPanicDoesNotPoison(t *testing.T) {
	m := newMemo[string](1<<20, func(*int) int { return 8 })
	calls := 0
	compute := func() *int {
		calls++
		if calls == 1 {
			panic("profiler bug")
		}
		v := 42
		return &v
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic did not reach the computing caller")
			}
		}()
		m.get("k", compute)
	}()
	if n := m.len(); n != 0 {
		t.Fatalf("the panicked computation left %d entries behind", n)
	}
	if v := m.get("k", compute); v == nil || *v != 42 {
		t.Fatalf("the caller after a panic got %v, want a recomputed 42", v)
	}
	if v := m.get("k", func() *int { t.Error("recomputed a retained key"); return nil }); v == nil || *v != 42 {
		t.Errorf("retained value = %v, want 42", v)
	}

	// A waiter: the first computation holds its entry until the second
	// caller has had every chance to find it, then panics.
	entered, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }()
		m.get("w", func() *int { close(entered); <-release; panic("profiler bug") })
	}()
	<-entered
	waiter := make(chan *int)
	go func() { v := 7; waiter <- m.get("w", func() *int { return &v }) }()
	close(release)
	wg.Wait()
	if v := <-waiter; v == nil || *v != 7 {
		t.Errorf("the waiter on a panicked computation got %v, want its own 7", v)
	}
}

// TestMemoEvictsOldestByBytes: retained values are bounded by bytes, the
// oldest completed entry goes first, a value larger than the whole bound is
// handed out without being retained, and eviction leaves handed-out values
// alone.
func TestMemoEvictsOldestByBytes(t *testing.T) {
	m := newMemo[int](3*(memoEntryBytes+100), func(v *[]byte) int { return len(*v) })
	value := func(n int) func() *[]byte {
		return func() *[]byte { b := make([]byte, n); return &b }
	}
	first := m.get(1, value(100))
	m.get(2, value(100))
	m.get(3, value(100))
	if m.len() != 3 {
		t.Fatalf("%d entries within the bound, want 3", m.len())
	}
	m.get(4, value(100))
	before := m.computes()
	m.get(2, value(100))
	m.get(3, value(100))
	m.get(4, value(100))
	if m.len() != 3 || m.computes() != before {
		t.Errorf("after a fourth value: %d entries, %d recomputes of the newest three; want 3 and 0", m.len(), m.computes()-before)
	}
	if m.get(1, value(100)) == first {
		t.Error("the oldest entry was not the one evicted")
	}
	if len(*first) != 100 {
		t.Error("eviction disturbed a handed-out value")
	}
	big := m.get(5, value(1<<20))
	if len(*big) != 1<<20 || m.get(5, value(1<<20)) == big {
		t.Error("a value larger than the bound was retained, or not handed out")
	}
}

// TestWarmMemoryRunAllocatesOnlyItsAssembly: with the profile memo warm, a
// Swift-Sim-Memory run allocates what building the simulator and making
// blocks resident costs (units, SMs, warps, in-flight records up to their
// working size) and nothing per instruction. The ceiling is about 25%
// above the measured count; one closure or buffer per instruction back on
// the issue path is +13,800 here.
func TestWarmMemoryRunAllocatesOnlyItsAssembly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	gpu := smallGPU()
	app := mustApp(t, "BFS", 1.0)
	opts := Options{Kind: Memory}
	var insts uint64
	run := func() {
		res, err := Run(app, gpu, opts)
		if err != nil {
			t.Fatal(err)
		}
		insts = res.Instructions
	}
	run()
	allocs := testing.AllocsPerRun(5, run)
	t.Logf("%v allocations for %d instructions", allocs, insts)
	const ceiling = 1880 // measured 1,506
	if allocs > ceiling {
		t.Errorf("a warm Memory run of %d instructions allocated %v objects, ceiling %d", insts, allocs, ceiling)
	}
}
