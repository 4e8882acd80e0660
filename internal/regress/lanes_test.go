package regress

import (
	"bytes"
	"reflect"
	"testing"

	"swiftsim/internal/reuse"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// listedCopy copies app with every memory instruction's lanes listed, one
// address per active lane, as traces held them before the strided form.
func listedCopy(app *trace.App) *trace.App {
	out := &trace.App{Name: app.Name, Suite: app.Suite}
	var lanes [trace.WarpSize]uint64
	for _, k := range app.Kernels {
		nk := *k
		nk.Blocks = make([]trace.BlockTrace, len(k.Blocks))
		for bi, b := range k.Blocks {
			nk.Blocks[bi].Warps = make([]trace.WarpTrace, len(b.Warps))
			for wi, w := range b.Warps {
				nw := append(trace.WarpTrace(nil), w...)
				for i := range nw {
					if len(nw[i].Addrs) > 0 {
						nw[i].Addrs = append([]uint64(nil), w[i].Lanes(&lanes)...)
						nw[i].Stride = 0
					}
				}
				nk.Blocks[bi].Warps[wi] = nw
			}
		}
		out.Kernels = append(out.Kernels, &nk)
	}
	return out
}

// TestLaneFormsSimulateAlike: an app whose evenly spaced lanes are held
// strided and the same app with every lane listed are one trace. Over
// three apps, one of them a scatter app, the two forms give the same
// ContentHash, LaunchKey of every kernel, hit-rate profile and canonical
// result under every simulator kind.
func TestLaneFormsSimulateAlike(t *testing.T) {
	gpu := DefaultCorpus().GPUs[0]
	for _, name := range []string{"BFS", "GEMM", "HOTSPOT"} {
		strided, err := workload.Generate(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		listed := listedCopy(strided)
		if err := listed.Validate(); err != nil {
			t.Fatal(err)
		}
		if trace.ContentHash(listed) != trace.ContentHash(strided) {
			t.Errorf("%s: the listed copy has another ContentHash", name)
		}
		for ki := range strided.Kernels {
			if trace.LaunchKey(listed.Kernels[ki]) != trace.LaunchKey(strided.Kernels[ki]) {
				t.Errorf("%s kernel %d: the listed copy has another LaunchKey", name, ki)
			}
		}
		// The simulator memoizes profiles by ContentHash, so the Memory
		// kind's runs share one; the profiler is compared directly.
		if !reflect.DeepEqual(reuse.ProfileApp(listed, gpu), reuse.ProfileApp(strided, gpu)) {
			t.Errorf("%s: the listed copy profiles differently", name)
		}
		for _, kind := range []sim.Kind{sim.Detailed, sim.Basic, sim.Memory, sim.L2Hybrid} {
			want, err := sim.Run(strided, gpu, sim.Options{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(listed, gpu, sim.Options{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			if w, g := Canonical(want), Canonical(got); !bytes.Equal(w, g) {
				t.Errorf("%s under %v: the listed copy's result differs:\n%s", name, kind, DiffLines(w, g, 10))
			}
		}
	}
}
