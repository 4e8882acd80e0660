package regress

import (
	"bytes"
	"fmt"
	"testing"

	"swiftsim/internal/sim"
	"swiftsim/internal/workload"
)

// TestSnapshotRoundTrip is the checkpoint determinism oracle over the golden
// corpus: every app is checkpointed at a mid-run quiescent kernel boundary,
// the checkpoint is structurally validated, restored into a fresh assembly,
// and the resumed run's canonical result must be byte-identical to an
// uninterrupted run. The snapshotting run itself must also be unperturbed —
// taking a checkpoint is observationally free.
func TestSnapshotRoundTrip(t *testing.T) {
	corpus := goldenCorpus(t)
	for _, cs := range corpus.Cases() {
		cs := cs
		t.Run(fmt.Sprintf("%s/%s", cs.GPU.Name, cs.App), func(t *testing.T) {
			base, err := cs.Run()
			if err != nil {
				t.Fatalf("base run: %v", err)
			}
			want := Canonical(base)

			// Snapshot at roughly the middle of the run; the writer rolls
			// forward to the first quiescent kernel boundary at or after it.
			var buf bytes.Buffer
			snapCase := cs
			snapCase.Opts.SnapshotAt = base.Cycles / 2
			snapCase.Opts.SnapshotTo = &buf
			snapRes, err := snapCase.Run()
			if err != nil {
				t.Fatalf("snapshot run: %v", err)
			}
			if got := Canonical(snapRes); !bytes.Equal(want, got) {
				t.Errorf("taking a snapshot perturbed the run:\n%s", DiffLines(want, got, 20))
			}
			if buf.Len() == 0 {
				t.Fatal("snapshot run wrote no checkpoint")
			}
			if err := sim.ParseSnapshot(buf.Bytes()); err != nil {
				t.Fatalf("checkpoint fails structural validation: %v", err)
			}

			restCase := cs
			restCase.Opts.RestoreFrom = bytes.NewReader(buf.Bytes())
			restRes, err := restCase.Run()
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
