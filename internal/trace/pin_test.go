package trace_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

var updateHashes = flag.Bool("update-hashes", false, "rewrite testdata/content_hashes.txt (only from a tree whose traces are known good)")

// TestDigestsPinned pins both digests of one catalog app to the values the
// two separate walkers produced before they were folded into one, and the
// ContentHash of every catalog app at scales 0.25 and 0.5 to
// testdata/content_hashes.txt. The digests key the profile memo, the
// service cache and the sampled-launch memo, so neither a change to the
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
		{"ContentHash", trace.ContentHash(app), "a765901ebfe19d6820770d2093daf6c7ce1d0f097e10977e4eea4f73cdff67b4"},
		{"LaunchKey(first)", trace.LaunchKey(app.Kernels[0]), "74d205f1ce04380e1e931cab4a4aae8d2f739d32de76b2c4ef23759138342b17"},
		{"LaunchKey(last)", trace.LaunchKey(app.Kernels[3]), "cbcf4dc4c6f29a061f65f3247ede2cfd4b8f3104f101075c4377d3e5e5f5f8a9"},
	} {
		if got := hex.EncodeToString(c.got[:]); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
}

func pinCatalogHashes(t *testing.T) {
	const path = "testdata/content_hashes.txt"
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
			t.Errorf("ContentHash moved:\n  got  %s\n  want %s", lines[i], wantLines[i])
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
		if !reflect.DeepEqual(got, app) || trace.ContentHash(got) != trace.ContentHash(app) {
			t.Errorf("%s: the round trip changed the trace", name)
		}
	}
}

// TestTracesHaveExactCapacities: both trace producers carve warps and lane
// addresses from a shared backing store with each slice's capacity clamped
// to its length, so that an append to one can never write into its
// neighbour. Every catalog app, as generated and as read back from .sgt,
// must hold that for every warp and every instruction.
func TestTracesHaveExactCapacities(t *testing.T) {
	check := func(how string, app *trace.App) {
		t.Helper()
		for ki, k := range app.Kernels {
			for bi := range k.Blocks {
				for wi, w := range k.Blocks[bi].Warps {
					if cap(w) != len(w) {
						t.Fatalf("%s %s kernel %d block %d warp %d: cap %d, len %d", how, app.Name, ki, bi, wi, cap(w), len(w))
					}
					for i := range w {
						if a := w[i].Addrs; cap(a) != len(a) {
							t.Fatalf("%s %s kernel %d block %d warp %d inst %d: addresses cap %d, len %d",
								how, app.Name, ki, bi, wi, i, cap(a), len(a))
						}
					}
				}
			}
		}
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
}
