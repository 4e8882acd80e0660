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
// corpus scale on a GPU under options.
type snapInput struct {
	app  string
	gpu  config.GPU
	opts sim.Options
}

// String names the input as "kind topology app", followed by "k=N" for a
// relaxed run.
func (in snapInput) String() string {
	s := fmt.Sprintf("%s %s %s", in.opts.Kind, in.gpu.NoCTopology, in.app)
	if k := in.opts.EpochCycles; k > 1 {
		s += fmt.Sprintf(" k=%d", k)
	}
	return s
}

// trace generates the input's trace.
func (in snapInput) trace(t *testing.T) *trace.App {
	t.Helper()
	app, err := workload.Generate(in.app, DefaultCorpus().Scale)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// cycleAccurateInputs are Basic and Detailed over apps, on the crossbar and
// on the ring, on the corpus's first GPU. Their checkpoints hold the
// pipelines, the instruction caches, the timed L1s and L2, the NoC, DRAM and
// the stores still draining through them.
func cycleAccurateInputs(apps []string) []snapInput {
	var out []snapInput
	for _, kind := range []sim.Kind{sim.Detailed, sim.Basic} {
		for _, topology := range []string{"crossbar", "ring"} {
			gpu := DefaultCorpus().GPUs[0]
			gpu.NoCTopology = topology
			for _, app := range apps {
				out = append(out, snapInput{app: app, gpu: gpu, opts: sim.Options{Kind: kind}})
			}
		}
	}
	return out
}

// pinApps are the apps whose cycle-accurate checkpoints TestSnapshotDigests
// pins and TestSnapshotRoundTrip also restores under relaxed epochs.
var pinApps = []string{"BFS", "GEMM", "HOTSPOT", "ALEXNET", "NW"}

// relaxed returns the crossbar inputs of ins at EpochCycles 8: their
// checkpoints also hold the epoch boundary's parked writes.
func relaxed(ins []snapInput) []snapInput {
	var out []snapInput
	for _, in := range ins {
		if in.gpu.NoCTopology == "crossbar" {
			in.opts.EpochCycles = 8
			out = append(out, in)
		}
	}
	return out
}

// checkpointMid runs in twice: uninterrupted, and checkpointing at the first
// kernel boundary at or after half the uninterrupted run's cycles. Taking
// the checkpoint must not perturb the run. It returns the uninterrupted
// run's canonical bytes and the checkpoint.
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

// TestSnapshotRoundTrip is the checkpoint determinism oracle: every input
// is checkpointed at a mid-run kernel boundary, the checkpoint is
// structurally validated, restored into a fresh assembly, and the resumed
// run's canonical result must be byte-identical to an uninterrupted run.
// The snapshotting run itself must also be unperturbed — taking a
// checkpoint is observationally free. The inputs are the golden corpus
// under Swift-Sim-Memory, the 20 apps under Basic and Detailed on the
// crossbar and the ring, and pinApps under both at EpochCycles 8. The
// cycle-accurate ones run one per kind under -short and none under the race
// detector, whose pass covers them no better.
func TestSnapshotRoundTrip(t *testing.T) {
	var inputs []snapInput
	var names []string
	for _, cs := range goldenCorpus(t).Cases() {
		inputs = append(inputs, snapInput{app: cs.App, gpu: cs.GPU, opts: cs.Opts})
		names = append(names, fmt.Sprintf("%s/%s", cs.GPU.Name, cs.App))
	}
	var timed []snapInput
	switch all := cycleAccurateInputs(workload.Names()); {
	case raceEnabled:
	case testing.Short():
		timed = []snapInput{all[0], all[len(all)-1]}
	default:
		timed = append(all, relaxed(cycleAccurateInputs(pinApps))...)
	}
	for _, in := range timed {
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
//   - Basic and Detailed over pinApps on the crossbar and the ring, mid-run,
//     with stores in flight;
//   - every kind over pinApps at cycle 0, the first boundary, where every
//     module of a fresh assembly is written.
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
	for _, in := range append(mid, cycleAccurateInputs(pinApps)...) {
		_, ck := checkpointMid(t, in.trace(t), in)
		fmt.Fprintf(&got, "%v mid %x\n", in, sha256.Sum256(ck))
	}
	for _, kind := range []sim.Kind{sim.Detailed, sim.Basic, sim.Memory, sim.L2Hybrid} {
		for _, app := range pinApps {
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
// snapshot identity: a checkpoint of a run that sets the deprecated field,
// taken at the first kernel boundary past half its cycles, restores into a
// run that leaves it unset, with a byte-identical final result.
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
