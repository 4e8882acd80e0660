package engine_test

import (
	"bytes"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/engine"
	"swiftsim/internal/sim"
	"swiftsim/internal/workload"
)

// The wake contract of engine.Waiter, checked on whole simulations: with
// the oracle of export_test.go on, the 20 catalog apps run under Basic and
// Detailed, and one Detailed run goes through a snapshot round trip, and
// after every visited cycle each module counted busy but off the tick set
// must still be Busy and Waiting.

const wakeScale = 0.25

// runWakeChecked runs one case with the oracle on and fails on the first
// violation.
func runWakeChecked(t *testing.T, app string, opts sim.Options) *sim.Result {
	t.Helper()
	tr, err := workload.Generate(app, wakeScale)
	if err != nil {
		t.Fatal(err)
	}
	wc := engine.CheckWakes(t)
	res, err := sim.Run(tr, config.RTX2080Ti(), opts)
	if wc.Mismatch != "" {
		t.Fatalf("%s under %s: %s", app, opts.Kind, wc.Mismatch)
	}
	if err != nil {
		t.Fatalf("%s under %s: %v", app, opts.Kind, err)
	}
	if wc.Checks == 0 && opts.RestoreFrom == nil {
		t.Fatalf("%s under %s: the wake oracle never ran", app, opts.Kind)
	}
	return res
}

// TestWakeContractOnTheCatalog runs the oracle over the catalog under both
// kinds whose memory side is cycle-accurate.
func TestWakeContractOnTheCatalog(t *testing.T) {
	if raceEnabled {
		t.Skip("40 whole simulations; the race-free pass runs them")
	}
	apps := workload.Names()
	if testing.Short() {
		apps = apps[:2]
	}
	for _, kind := range []sim.Kind{sim.Basic, sim.Detailed} {
		for _, app := range apps {
			t.Run(kind.String()+"/"+app, func(t *testing.T) {
				runWakeChecked(t, app, sim.Options{Kind: kind})
			})
		}
	}
}

// TestWakeContractThroughASnapshot checkpoints a Detailed run at a mid-run
// kernel boundary, with writes in flight, and resumes it with the oracle
// on: a restored cache recounts its queued requests, and the resumed run
// ends where the uninterrupted one did.
func TestWakeContractThroughASnapshot(t *testing.T) {
	if raceEnabled {
		t.Skip("whole simulations; the race-free pass runs them")
	}
	const app = "BFS"
	want := runWakeChecked(t, app, sim.Options{Kind: sim.Detailed})
	var ck bytes.Buffer
	runWakeChecked(t, app, sim.Options{Kind: sim.Detailed, SnapshotTo: &ck, SnapshotAt: want.Cycles / 2})
	if ck.Len() == 0 {
		t.Fatal("no checkpoint written")
	}
	got := runWakeChecked(t, app, sim.Options{Kind: sim.Detailed, RestoreFrom: bytes.NewReader(ck.Bytes())})
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
		t.Errorf("restored run: %d cycles, %d instructions; uninterrupted %d, %d",
			got.Cycles, got.Instructions, want.Cycles, want.Instructions)
	}
}
