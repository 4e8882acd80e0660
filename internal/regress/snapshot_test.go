package regress

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// snapInput is one run the snapshot tests checkpoint: a catalog app at the
// corpus scale, or its load-only variant (loadOnly), on a GPU under options.
type snapInput struct {
	app   string
	loads bool
	gpu   config.GPU
	opts  sim.Options
}

// String names the input as "kind topology app", the app suffixed "+loads"
// for a load-only variant.
func (in snapInput) String() string {
	app := in.app
	if in.loads {
		app += "+loads"
	}
	return fmt.Sprintf("%s %s %s", in.opts.Kind, in.gpu.NoCTopology, app)
}

// trace generates the input's trace.
func (in snapInput) trace(t *testing.T) *trace.App {
	t.Helper()
	app, err := workload.Generate(in.app, DefaultCorpus().Scale)
	if err != nil {
		t.Fatal(err)
	}
	if in.loads {
		return loadOnly(app)
	}
	return app
}

// loadOnly returns a copy of app with every global store rewritten as a
// global load. Basic and Detailed write a store through to the L2 and DRAM
// without the warp waiting for it, so a kernel boundary of a catalog trace
// still has stores in flight and those kinds never checkpoint mid-run. With
// loads only every boundary drains, and a checkpoint holds the pipelines,
// the instruction caches, the timed L2, the NoC and DRAM.
func loadOnly(app *trace.App) *trace.App {
	out := &trace.App{Name: app.Name, Suite: app.Suite}
	for _, k := range app.Kernels {
		nk := *k
		nk.Blocks = make([]trace.BlockTrace, len(k.Blocks))
		for bi, b := range k.Blocks {
			nk.Blocks[bi].Warps = make([]trace.WarpTrace, len(b.Warps))
			for wi, w := range b.Warps {
				nw := append(trace.WarpTrace(nil), w...)
				for i := range nw {
					if nw[i].Op == trace.OpStoreGlobal {
						nw[i].Op = trace.OpLoadGlobal
					}
				}
				nk.Blocks[bi].Warps[wi] = nw
			}
		}
		out.Kernels = append(out.Kernels, &nk)
	}
	return out
}

// loadOnlyApps are the apps whose load-only variants carry Basic and
// Detailed checkpoints.
var loadOnlyApps = []string{"BFS", "GEMM", "HOTSPOT", "ALEXNET", "NW"}

// loadOnlyInputs are Basic and Detailed over the load-only variants of
// loadOnlyApps, on the crossbar and on the ring, on the corpus's first GPU.
func loadOnlyInputs() []snapInput {
	var out []snapInput
	for _, kind := range []sim.Kind{sim.Detailed, sim.Basic} {
		for _, topology := range []string{"crossbar", "ring"} {
			gpu := DefaultCorpus().GPUs[0]
			gpu.NoCTopology = topology
			for _, app := range loadOnlyApps {
				out = append(out, snapInput{app: app, loads: true, gpu: gpu, opts: sim.Options{Kind: kind}})
			}
		}
	}
	return out
}

// checkpointMid runs in twice: uninterrupted, and checkpointing at the first
// quiescent kernel boundary at or after half the uninterrupted run's cycles.
// Taking the checkpoint must not perturb the run. It returns the
// uninterrupted run's canonical bytes and the checkpoint.
func checkpointMid(t *testing.T, app *trace.App, in snapInput) (want, ck []byte) {
	t.Helper()
	base, err := sim.Run(app, in.gpu, in.opts)
	if err != nil {
		t.Fatalf("%v: base run: %v", in, err)
	}
	want = Canonical(base)
	var buf bytes.Buffer
	opts := in.opts
	opts.SnapshotAt, opts.SnapshotTo = base.Cycles/2, &buf
	snapRes, err := sim.Run(app, in.gpu, opts)
	if err != nil {
		t.Fatalf("%v: snapshot run: %v", in, err)
	}
	if got := Canonical(snapRes); !bytes.Equal(want, got) {
		t.Errorf("%v: taking a snapshot perturbed the run:\n%s", in, DiffLines(want, got, 20))
	}
	if buf.Len() == 0 {
		t.Fatalf("%v: snapshot run wrote no checkpoint", in)
	}
	return want, buf.Bytes()
}

// TestSnapshotRoundTrip is the checkpoint determinism oracle over the golden
// corpus: every app is checkpointed at a mid-run quiescent kernel boundary,
// the checkpoint is structurally validated, restored into a fresh assembly,
// and the resumed run's canonical result must be byte-identical to an
// uninterrupted run. The snapshotting run itself must also be unperturbed —
// taking a checkpoint is observationally free. The corpus runs under
// Swift-Sim-Memory; the load-only inputs add Basic and Detailed on the
// crossbar and the ring (one of them under -short), whose checkpoints hold
// the cycle-accurate modules' state.
func TestSnapshotRoundTrip(t *testing.T) {
	var inputs []snapInput
	var names []string
	for _, cs := range goldenCorpus(t).Cases() {
		inputs = append(inputs, snapInput{app: cs.App, gpu: cs.GPU, opts: cs.Opts})
		names = append(names, fmt.Sprintf("%s/%s", cs.GPU.Name, cs.App))
	}
	loads := loadOnlyInputs()
	if testing.Short() {
		loads = loads[:1]
	}
	for _, in := range loads {
		inputs = append(inputs, in)
		names = append(names, strings.ReplaceAll(in.String(), " ", "/"))
	}
	for i, in := range inputs {
		t.Run(names[i], func(t *testing.T) {
			app := in.trace(t)
			want, ck := checkpointMid(t, app, in)
			if err := sim.ParseSnapshot(ck); err != nil {
				t.Fatalf("checkpoint fails structural validation: %v", err)
			}
			opts := in.opts
			opts.RestoreFrom = bytes.NewReader(ck)
			restRes, err := sim.Run(app, in.gpu, opts)
			if err != nil {
				t.Fatalf("restored run: %v", err)
			}
			if got := Canonical(restRes); !bytes.Equal(want, got) {
				t.Errorf("restored run diverged from the uninterrupted run:\n%s",
					DiffLines(want, got, 20))
			}
		})
	}
}

// snapshotDigestsPath is the fixture of TestSnapshotDigests: one line per
// checkpoint, "kind topology app at sha256(checkpoint)".
var snapshotDigestsPath = filepath.Join("testdata", "snapshot_digests.txt")

// TestSnapshotDigests pins every byte of the checkpoints a run writes, so a
// change to how modules serialise their state cannot move the format
// without bumping snap.Version:
//   - Memory and L2Hybrid over the 20 apps, checkpointed mid-run;
//   - Basic and Detailed over the load-only inputs, mid-run;
//   - every kind over loadOnlyApps' catalog traces at cycle 0, the first
//     boundary, where every module of a fresh assembly is written.
//
// The fixture holds digests because an L2Hybrid checkpoint is megabytes.
func TestSnapshotDigests(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the pin runs 100 simulations, half of them cycle-accurate; the race-free pass runs it")
	}
	gpu := DefaultCorpus().GPUs[0]
	var got strings.Builder
	var mid []snapInput
	for _, kind := range []sim.Kind{sim.Memory, sim.L2Hybrid} {
		for _, app := range workload.Names() {
			mid = append(mid, snapInput{app: app, gpu: gpu, opts: sim.Options{Kind: kind}})
		}
	}
	for _, in := range append(mid, loadOnlyInputs()...) {
		_, ck := checkpointMid(t, in.trace(t), in)
		fmt.Fprintf(&got, "%v mid %x\n", in, sha256.Sum256(ck))
	}
	for _, kind := range []sim.Kind{sim.Detailed, sim.Basic, sim.Memory, sim.L2Hybrid} {
		for _, app := range loadOnlyApps {
			in := snapInput{app: app, gpu: gpu, opts: sim.Options{Kind: kind}}
			var buf bytes.Buffer
			opts := in.opts
			opts.SnapshotTo = &buf
			if _, err := sim.Run(in.trace(t), gpu, opts); err != nil {
				t.Fatalf("%v: snapshot run: %v", in, err)
			}
			fmt.Fprintf(&got, "%v 0 %x\n", in, sha256.Sum256(buf.Bytes()))
		}
	}
	if *update {
		if err := os.WriteFile(snapshotDigestsPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(snapshotDigestsPath)
	if err != nil {
		t.Fatalf("missing digest fixture (regenerate with -update): %v", err)
	}
	if d := DiffLines(want, []byte(got.String()), 20); d != "" {
		t.Errorf("checkpoint bytes moved from %s (a layout change bumps snap.Version; regenerate with -update only then):\n%s",
			snapshotDigestsPath, d)
	}
}

// TestSnapshotCrossThreads pins that EngineThreads is absent from the
// snapshot identity: a checkpoint of a cycle-accurate run that sets the
// deprecated field restores into a run that leaves it unset, with a
// byte-identical final result.
//
// The oracle runs the L2Hybrid configuration: its kernel boundaries are
// quiescent (the analytic backend completes in-kernel), whereas Basic and
// Detailed boundaries typically still carry fire-and-forget store
// completions — those runs take the designed skip-or-fail path instead.
func TestSnapshotCrossThreads(t *testing.T) {
	gpu := DefaultCorpus().GPUs[0]
	apps := []string{"BFS", "GEMM"}
	if testing.Short() {
		apps = apps[:1]
	}
	for _, name := range apps {
		app, err := workload.Generate(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		base, err := sim.Run(app, gpu, sim.Options{Kind: sim.L2Hybrid})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		_, err = sim.Run(app, gpu, sim.Options{
			Kind:          sim.L2Hybrid,
			EngineThreads: 4,
			SnapshotAt:    base.Cycles / 2,
			SnapshotTo:    &buf,
		})
		if err != nil {
			t.Fatalf("%s: snapshot run: %v", name, err)
		}
		res, err := sim.Run(app, gpu, sim.Options{Kind: sim.L2Hybrid, RestoreFrom: bytes.NewReader(buf.Bytes())})
		if err != nil {
			t.Fatalf("%s: restored run: %v", name, err)
		}
		if want, got := Canonical(base), Canonical(res); !bytes.Equal(want, got) {
			t.Errorf("%s: restored run diverged from the uninterrupted run:\n%s", name, DiffLines(want, got, 20))
		}
	}
}
