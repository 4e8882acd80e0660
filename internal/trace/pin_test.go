package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

var updateHashes = flag.Bool("update-hashes", false, "rewrite testdata/content_hashes.txt and testdata/sgt_hashes.txt (only from a tree whose traces are known good)")

// TestDigestsPinned pins one catalog app's launch keys to the values the
// two separate walkers produced before they were folded into one, its
// ContentHash to the value since lanes are hashed as stored ("swiftsim-
// trace-hash 2"), and the ContentHash of every catalog app at scales 0.25
// and 0.5 to testdata/content_hashes.txt. The digests key the profile memo,
// the service cache and the sampled-launch memo, so neither a change to the
// walker nor one to how a generator or the .sgt reader lays a trace out in
// memory may move a bit of them.
func TestDigestsPinned(t *testing.T) {
	t.Run("catalog", pinCatalogHashes)
	app, err := workload.Generate("BFS", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Kernels) != 4 {
		t.Fatalf("BFS at scale 0.25 has %d kernels, want 4", len(app.Kernels))
	}
	for _, c := range []struct {
		name string
		got  [32]byte
		want string
	}{
		{"ContentHash", trace.ContentHash(app), "d192e77b5a94089c8e32a8de13da173ea883591c69a5947588e325003cd4d960"},
		{"LaunchKey(first)", trace.LaunchKey(app.Kernels[0]), "74d205f1ce04380e1e931cab4a4aae8d2f739d32de76b2c4ef23759138342b17"},
		{"LaunchKey(last)", trace.LaunchKey(app.Kernels[3]), "cbcf4dc4c6f29a061f65f3247ede2cfd4b8f3104f101075c4377d3e5e5f5f8a9"},
	} {
		if got := hex.EncodeToString(c.got[:]); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
}

func pinCatalogHashes(t *testing.T) {
	var lines []string
	for _, scale := range []float64{0.25, 0.5} {
		for _, name := range workload.Names() {
			app, err := workload.Generate(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s %g %x", name, scale, trace.ContentHash(app)))
		}
	}
	checkPinned(t, "testdata/content_hashes.txt", "ContentHash", lines)
}

// TestSGTBytesPinned pins the SHA-256 of every catalog app's .sgt bytes at
// scale 0.25 to testdata/sgt_hashes.txt: a change to how Write formats a
// line, or to how a trace holds its lane addresses, may not move a byte of
// a written trace.
func TestSGTBytesPinned(t *testing.T) {
	var lines []string
	for _, name := range workload.Names() {
		app, err := workload.Generate(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		d := sha256.New()
		if err := trace.Write(d, app); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s 0.25 %x", name, d.Sum(nil)))
	}
	checkPinned(t, "testdata/sgt_hashes.txt", ".sgt bytes", lines)
}

// checkPinned compares lines with the fixture at path, or rewrites it
// under -update-hashes.
func checkPinned(t *testing.T, path, what string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if *updateHashes {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d hashes, %d pinned", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("%s moved:\n  got  %s\n  want %s", what, lines[i], wantLines[i])
		}
	}
}

// TestSGTRoundTripKeepsMemIndex: the .sgt format does not carry MemIndex,
// so a written and re-read catalog trace must get every index back from the
// reader's numbering, global and shared instructions alike, and still
// validate and hash as the generated one does.
func TestSGTRoundTripKeepsMemIndex(t *testing.T) {
	for _, name := range []string{"HOTSPOT", "BFS"} {
		app, err := workload.Generate(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, app); err != nil {
			t.Fatal(err)
		}
		got, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mem := 0
		for ki, k := range app.Kernels {
			for bi := range k.Blocks {
				for wi, w := range k.Blocks[bi].Warps {
					gw := got.Kernels[ki].Blocks[bi].Warps[wi]
					for i := range w {
						if w[i].Op.IsMem() {
							mem++
						}
						if gw[i].MemIndex != w[i].MemIndex {
							t.Fatalf("%s kernel %d block %d warp %d inst %d: MemIndex %d after the round trip, generated %d",
								name, ki, bi, wi, i, gw[i].MemIndex, w[i].MemIndex)
						}
					}
				}
			}
		}
		if mem == 0 {
			t.Fatalf("%s has no memory instruction", name)
		}
		if !trace.SameTrace(got, app) || trace.ContentHash(got) != trace.ContentHash(app) {
			t.Errorf("%s: the round trip changed the trace", name)
		}
	}
}

// TestTracesHaveExactCapacities: both trace producers carve warps and
// listed lane runs from a shared backing store with each slice's capacity
// clamped to its length, so that an append to one can never write into its
// neighbour. Every catalog app, as generated and as read back from .sgt,
// must hold that for every warp and every listed instruction's lanes. The
// catalog has instructions of both lane forms, strided and listed, and its
// scatter apps most of the listed ones.
func TestTracesHaveExactCapacities(t *testing.T) {
	forms := map[string][2]int{} // per producer: strided and listed instructions
	check := func(how string, app *trace.App) {
		t.Helper()
		n := forms[how]
		var buf [trace.WarpSize]uint64
		for ki, k := range app.Kernels {
			for bi := range k.Blocks {
				for wi, w := range k.Blocks[bi].Warps {
					if cap(w) != len(w) {
						t.Fatalf("%s %s kernel %d block %d warp %d: cap %d, len %d", how, app.Name, ki, bi, wi, cap(w), len(w))
					}
					for i := range w {
						switch {
						case !w[i].Op.IsMem():
						case w[i].Listed():
							if a := k.Store.Lanes(&w[i], &buf); cap(a) != len(a) {
								t.Fatalf("%s %s kernel %d block %d warp %d inst %d: addresses cap %d, len %d",
									how, app.Name, ki, bi, wi, i, cap(a), len(a))
							}
							n[1]++
						case w[i].ActiveLanes() > 1:
							n[0]++
						}
					}
				}
			}
		}
		forms[how] = n
	}
	for _, name := range workload.Names() {
		app, err := workload.Generate(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		check("generated", app)
		var buf bytes.Buffer
		if err := trace.Write(&buf, app); err != nil {
			t.Fatal(err)
		}
		read, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("read", read)
	}
	for how, n := range forms {
		if n[0] == 0 || n[1] == 0 {
			t.Errorf("%s: %d strided and %d listed memory instructions, want both forms", how, n[0], n[1])
		}
	}
}

// TestInstSize pins trace.Inst at 32 bytes: one lane word holds an
// instruction's lane 0 or the index of its listed lanes, and a strided
// instruction's Stride fills the padding after MemIndex.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(trace.Inst{}); got != 32 {
		t.Errorf("unsafe.Sizeof(trace.Inst{}) = %d, want 32", got)
	}
}

// TestInstHoldsNoPointer: no field of trace.Inst, at any depth, is or holds
// a Go pointer, so an app's instruction chunks are memory the collector
// allocates as holding none and never scans. A slice, map, string,
// interface, func, channel or pointer field fails it.
func TestInstHoldsNoPointer(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %v: trace.Inst must hold no pointer", path, typ.Kind())
		}
	}
	walk("Inst", reflect.TypeOf(trace.Inst{}))
}

// shape counts what a trace's size is bounded by.
type shape struct {
	kernels, blocks, warps, insts, maxWarp int
	listed                                 int // lanes listed in the lane store
}

func shapeOf(app *trace.App) shape {
	s := shape{kernels: len(app.Kernels)}
	for _, k := range app.Kernels {
		s.blocks += len(k.Blocks)
		for _, b := range k.Blocks {
			s.warps += len(b.Warps)
			for _, w := range b.Warps {
				s.insts += len(w)
				s.maxWarp = max(s.maxWarp, len(w))
				for i := range w {
					if w[i].Listed() {
						s.listed += w[i].ActiveLanes()
					}
				}
			}
		}
	}
	return s
}

// chunks is how many arena chunks the trace fills.
func (s shape) chunks() int {
	return s.insts/trace.InstChunk + s.listed/trace.AddrChunk
}

// TestReadAllocationsTrackStructure: reading a .sgt trace allocates per
// kernel, per block and per arena chunk, as generating one does
// (TestGenerateAllocationsTrackStructure), not per line. A kernel pays for
// its name, launch dimensions and block table; a block for its warp table;
// the instructions and lane addresses for the chunks of the app's one
// arena, with a quarter more for the tails warps and lanes leave behind.
// One more allocation per warp breaks the bound for every catalog app; one
// per instruction line, as parsing through strings did, for every app many
// times over (GEMM at scale 0.5: 39,026 allocations, 64 before its kernels
// shared an arena).
func TestReadAllocationsTrackStructure(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, scale := range []float64{0.5, 2} {
		for _, name := range workload.Names() {
			app, err := workload.Generate(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := trace.Write(&buf, app); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := trace.Read(bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
			})
			s := shapeOf(app)
			if bound := 32 + 16*s.kernels + 2*s.blocks + 5*s.chunks()/4; allocs > float64(bound) {
				t.Errorf("%s at scale %g: reading made %.0f allocations for %d kernels, %d blocks, %d instructions; bound %d",
					name, scale, allocs, s.kernels, s.blocks, s.insts, bound)
			}
		}
	}
}

// TestTraceBytesTrackStructure holds the bytes generating an app allocates,
// its trace and the builder's scratch, at scales 0.5, 2 and 4 to 32 per
// instruction, 8 per listed lane and nothing per strided or one-lane
// instruction, 24 per warp and per block (the warp and block tables), and
// the arena's chunk slack: the app's last chunk of each store and its
// builder's scratch, once per app since its kernels share them, per full
// chunk a tail shorter than the take that did not fit it (a warp of
// instructions, a warp's lanes), and twice a slice header per lane chunk
// for the lane store's chunk table. Any cost per instruction or lane beyond
// these breaks the bound as the scale grows: an 8-byte word more per
// trace.Inst broke it for 16 of the 20 apps at scale 4 when the slack was
// per kernel, and an arena and builder per kernel break it for 21 of the
// 60 rows.
func TestTraceBytesTrackStructure(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	for _, spec := range workload.Catalog() {
		for _, scale := range []float64{0.5, 2, 4} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			app := spec.Generate(scale)
			runtime.ReadMemStats(&after)
			bytes := after.TotalAlloc - before.TotalAlloc
			s := shapeOf(app)
			laneChunks := s.listed/trace.AddrChunk + 1
			slack := trace.InstChunk*32 + trace.AddrChunk*8 + 2*32*s.maxWarp +
				s.insts/trace.InstChunk*32*s.maxWarp + laneChunks*(8*trace.WarpSize+2*24)
			bound := 32*s.insts + 8*s.listed + 24*(s.warps+s.blocks) + slack + 4096
			if bytes > uint64(bound) {
				t.Errorf("%s at scale %g: %d bytes for %d instructions, %d listed lanes, %d kernels; bound %d",
					spec.Name, scale, bytes, s.insts, s.listed, s.kernels, bound)
			}
		}
	}
}
