package trace_test

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// TestDigestsPinned pins both digests of one catalog app to the values the
// two separate walkers produced before they were folded into one. The
// digests key the profile memo, the service cache and the sampled-launch
// memo, so the fold (and any later change to the walker) must keep them
// bit-equal.
func TestDigestsPinned(t *testing.T) {
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
