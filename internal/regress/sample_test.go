package regress

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/sim"
	"swiftsim/internal/workload"
)

// The sampled-execution oracles. Sampling (sim.Sampling) is an accuracy
// trade: repeated kernel launches replay a recorded outcome and each
// launch simulates only a representative block subset, with the remainder
// extrapolated analytically. Three properties are pinned here:
//
//   - Off by default: with Sampling unset the golden corpus is already
//     byte-identical to its fixtures (golden_test.go) — there is no
//     sampling code on that path to re-test.
//   - Determinism: a sampled run is a pure function of (configuration,
//     sampling parameters) — repetition changes nothing.
//   - Bounded drift: per-preset relative cycle error against the exact
//     run stays within the committed envelope fixtures.

// sampleGPU shrinks a preset to the sampling oracle's operating point:
// 4 SMs and 2 memory partitions keep every wave small enough that the
// corpus apps have multi-wave grids at test scales (on the full 68-SM
// preset the whole grid fits in one wave and block sampling is a no-op),
// while preserving the preset's latencies and cache geometry.
func sampleGPU(gpu config.GPU) config.GPU {
	gpu.NumSMs = 4
	gpu.MemPartitions = 2
	return gpu
}

// sampleEnvelopeApps are the envelope's (app, scale) operating points:
// GRU and LSTM are iterative (launch replay dominates), HOTSPOT and SM
// are single-launch multi-wave grids (representative-block sampling and
// analytical extrapolation dominate).
var sampleEnvelopeApps = []struct {
	name  string
	scale float64
}{
	{"GRU", 2},
	{"LSTM", 2},
	{"HOTSPOT", 4},
	{"SM", 4},
}

// SampleEnvelopePath returns the fixture path for one GPU preset's
// sampled-execution error envelope: testdata/sample/<gpu>.envelope.
func SampleEnvelopePath(gpuName string) string {
	return filepath.Join("testdata", "sample", gpuName+".envelope")
}

// sampleEnvelopeHeader identifies the fixture format and operating point
// (the simulator defaults: fraction 0.125, stride 8, seed 0).
var sampleEnvelopeHeader = fmt.Sprintf("swiftsim-sample-envelope 1 kind=%s frac=%g stride=%d seed=0 sms=4 parts=2",
	sim.Basic, sim.DefaultBlockFraction, sim.DefaultReplayStride)

// TestSampleDeterministic pins the determinism guarantee: a sampled run is
// bit-reproducible across repetitions — selection is a pure function of
// the configuration, and measured durations fold through order-independent
// sums.
func TestSampleDeterministic(t *testing.T) {
	gpu := sampleGPU(DefaultCorpus().GPUs[0])
	cases := []struct {
		name  string
		scale float64
	}{
		{"GRU", 2},      // replay-dominant
		{"PAGERANK", 1}, // block-sampling path with an irregular grid
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		app, err := workload.Generate(c.name, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		opts := sim.Options{Kind: sim.Basic, Sampling: sim.Sampling{Enabled: true}}
		base, err := sim.Run(app, gpu, opts)
		if err != nil {
			t.Fatalf("%s sampled: %v", c.name, err)
		}
		if !base.Sampled {
			t.Fatalf("%s: result not marked Sampled", c.name)
		}
		again, err := sim.Run(app, gpu, opts)
		if err != nil {
			t.Fatalf("%s sampled rerun: %v", c.name, err)
		}
		if want, got := Canonical(base), Canonical(again); !bytes.Equal(want, got) {
			t.Errorf("%s: sampled run differs between two runs:\n%s", c.name, DiffLines(want, got, 20))
		}
	}
}

// TestSampleSeedSelectsDifferentBlocks guards the seed plumbing: two
// different seeds must be allowed to pick different representatives (equal
// seeds are already pinned byte-identical by TestSampleDeterministic).
// Cycles may coincide by chance on some apps, so this only requires the
// runs to be valid, not distinct — the real assertion is that Seed
// round-trips into selection without error and deterministically.
func TestSampleSeedSelectsDifferentBlocks(t *testing.T) {
	gpu := sampleGPU(DefaultCorpus().GPUs[0])
	app, err := workload.Generate("SM", 4)
	if err != nil {
		t.Fatal(err)
	}
	byseed := make(map[uint64]uint64)
	for _, seed := range []uint64{0, 1} {
		res, err := sim.Run(app, gpu, sim.Options{
			Kind: sim.Basic, Sampling: sim.Sampling{Enabled: true, Seed: seed}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		again, err := sim.Run(app, gpu, sim.Options{
			Kind: sim.Basic, Sampling: sim.Sampling{Enabled: true, Seed: seed}})
		if err != nil {
			t.Fatalf("seed %d repeat: %v", seed, err)
		}
		if res.Cycles != again.Cycles {
			t.Errorf("seed %d: cycles not reproducible: %d then %d", seed, res.Cycles, again.Cycles)
		}
		byseed[seed] = res.Cycles
	}
	t.Logf("seed 0: %d cycles, seed 1: %d cycles", byseed[0], byseed[1])
}

// parseSampleEnvelope reads a committed sample envelope fixture into
// app → max permille.
func parseSampleEnvelope(t *testing.T, path string) map[string]uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing sample envelope fixture (regenerate with -update): %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != sampleEnvelopeHeader {
		t.Fatalf("sample envelope fixture %s has header %q, want %q (regenerate with -update)",
			path, lines[0], sampleEnvelopeHeader)
	}
	out := make(map[string]uint64)
	for _, ln := range lines[1:] {
		var app string
		var scale float64
		var p uint64
		if _, err := fmt.Sscanf(ln, "%s %g %d", &app, &scale, &p); err != nil {
			t.Fatalf("sample envelope fixture %s: bad line %q: %v", path, ln, err)
		}
		out[app] = p
	}
	return out
}

// TestSampleEnvelope is the accuracy oracle: per-preset, per-app relative
// cycle error of the default sampled Basic run against its exact serial
// baseline, bounded by the committed envelope. Sampled runs are
// deterministic, so any change in these numbers is a real behavior change
// and reviewed like a golden diff; regenerate intended changes with
// -update (or `make envelopes`).
func TestSampleEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("envelope oracle runs the full preset sweep")
	}
	for _, preset := range DefaultCorpus().GPUs {
		gpu := sampleGPU(preset)
		t.Run(preset.Name, func(t *testing.T) {
			got := make(map[string]uint64, len(sampleEnvelopeApps))
			for _, c := range sampleEnvelopeApps {
				app, err := workload.Generate(c.name, c.scale)
				if err != nil {
					t.Fatal(err)
				}
				exact, err := sim.Run(app, gpu, sim.Options{Kind: sim.Basic})
				if err != nil {
					t.Fatalf("%s exact: %v", c.name, err)
				}
				sampled, err := sim.Run(app, gpu, sim.Options{
					Kind: sim.Basic, Sampling: sim.Sampling{Enabled: true}})
				if err != nil {
					t.Fatalf("%s sampled: %v", c.name, err)
				}
				got[c.name] = relErrPermille(exact.Cycles, sampled.Cycles)
				t.Logf("%s@%g: exact %d cycles, sampled %d cycles (ticked %d vs %d), error %d‰",
					c.name, c.scale, exact.Cycles, sampled.Cycles,
					sampled.TickedCycles, exact.TickedCycles, got[c.name])
			}
			path := SampleEnvelopePath(preset.Name)
			if *update {
				var b strings.Builder
				b.WriteString(sampleEnvelopeHeader + "\n")
				for _, c := range sampleEnvelopeApps {
					fmt.Fprintf(&b, "%s %g %d\n", c.name, c.scale, got[c.name])
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want := parseSampleEnvelope(t, path)
			for _, c := range sampleEnvelopeApps {
				bound, ok := want[c.name]
				if !ok {
					t.Errorf("%s missing from sample envelope fixture %s (regenerate with -update)", c.name, path)
					continue
				}
				if got[c.name] > bound {
					t.Errorf("%s: sampled relative cycle error %d‰ exceeds the committed envelope %d‰ (regenerate with -update if intended)",
						c.name, got[c.name], bound)
				}
			}
		})
	}
}

// TestSampleSpeedsUpTickedCycles pins the mechanism behind the perf gate:
// at the default parameters, sampled execution must tick strictly fewer
// engine cycles than the exact run on a replay-heavy app (the wall-clock
// speedup itself is gated by BenchmarkEngineSampled via make benchcmp,
// where it is measured rather than assumed).
func TestSampleSpeedsUpTickedCycles(t *testing.T) {
	gpu := sampleGPU(DefaultCorpus().GPUs[0])
	app, err := workload.Generate("GRU", 2)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := sim.Run(app, gpu, sim.Options{Kind: sim.Basic})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := sim.Run(app, gpu, sim.Options{
		Kind: sim.Basic, Sampling: sim.Sampling{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.TickedCycles*2 >= exact.TickedCycles {
		t.Errorf("sampled run ticked %d cycles, want < half of the exact run's %d",
			sampled.TickedCycles, exact.TickedCycles)
	}
}
