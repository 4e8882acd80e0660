package regress

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swiftsim/internal/sim"
	"swiftsim/internal/workload"
)

// epochKValues is the relaxed-sync sweep the oracles run: exact mode, a
// moderate epoch, and an aggressive one.
var epochKValues = []int{1, 8, 64}

// TestGoldenCorpusEpochCycles is the relaxed-mode safety oracle over the
// committed corpus: the golden corpus is Swift-Sim-Memory, which always
// runs exact, so EpochCycles at any value must leave all 60 cases
// byte-identical to their fixtures — the relaxation must never leak into
// an assembly with nothing to relax.
func TestGoldenCorpusEpochCycles(t *testing.T) {
	corpus := goldenCorpus(t)
	for _, k := range epochKValues {
		for _, cs := range corpus.Cases() {
			cs := cs
			cs.Opts.EpochCycles = k
			t.Run(fmt.Sprintf("k=%d/%s/%s", k, cs.GPU.Name, cs.App), func(t *testing.T) {
				res, err := cs.Run()
				if err != nil {
					t.Fatalf("simulation failed at EpochCycles=%d: %v", k, err)
				}
				want, err := os.ReadFile(GoldenPath(cs.GPU.Name, cs.App))
				if err != nil {
					t.Fatalf("missing golden fixture: %v", err)
				}
				if got := Canonical(res); !bytes.Equal(want, got) {
					t.Errorf("EpochCycles=%d drifted from the golden fixture:\n%s",
						k, DiffLines(want, got, 20))
				}
			})
		}
	}
}

// TestEpochK1MatchesSerial pins the exactness guarantee: EpochCycles=1 is
// the unset value spelled out, so the cycle-accurate kinds must stay
// byte-identical to their default runs.
func TestEpochK1MatchesSerial(t *testing.T) {
	type cfg struct {
		kind sim.Kind
		apps []string
	}
	cases := []cfg{
		{sim.Basic, []string{"BFS", "GEMM"}},
		{sim.L2Hybrid, []string{"GEMM"}},
		{sim.Detailed, []string{"GEMM"}},
	}
	if testing.Short() {
		cases = []cfg{{sim.Basic, []string{"GEMM"}}}
	}
	gpu := DefaultCorpus().GPUs[0]
	for _, c := range cases {
		for _, name := range c.apps {
			app, err := workload.Generate(name, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			base, err := sim.Run(app, gpu, sim.Options{Kind: c.kind})
			if err != nil {
				t.Fatalf("%s/%s serial: %v", c.kind, name, err)
			}
			want := Canonical(base)
			res, err := sim.Run(app, gpu, sim.Options{Kind: c.kind, EpochCycles: 1})
			if err != nil {
				t.Fatalf("%s/%s k=1: %v", c.kind, name, err)
			}
			if got := Canonical(res); !bytes.Equal(want, got) {
				t.Errorf("%s/%s: EpochCycles=1 diverged from serial:\n%s",
					c.kind, name, DiffLines(want, got, 20))
			}
		}
	}
}

// TestEpochRelaxedReproducible pins the determinism guarantee for k > 1: a
// relaxed run is a pure function of (configuration, k) — repetition must
// not change a single byte.
func TestEpochRelaxedReproducible(t *testing.T) {
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
		opts := sim.Options{Kind: sim.Basic, EpochCycles: 8}
		base, err := sim.Run(app, gpu, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := sim.Run(app, gpu, opts)
		if err != nil {
			t.Fatalf("%s rerun: %v", name, err)
		}
		if want, got := Canonical(base), Canonical(again); !bytes.Equal(want, got) {
			t.Errorf("%s: relaxed k=8 differs between two runs:\n%s", name, DiffLines(want, got, 20))
		}
	}
}

// --- The accuracy-envelope oracle -----------------------------------------

// The envelope oracle quantifies relaxed-mode drift where it can actually
// occur: the Basic configuration's SMs and L1s running ahead of the shared
// NoC/L2/DRAM. For every GPU preset it compares a k=8 relaxed run against
// the serial baseline and requires the relative cycle error (in permille,
// rounded up) to stay within the committed per-preset fixture. The fixtures
// are regenerated with -update; relaxed runs are deterministic, so any
// change in these numbers is a real behavior change and reviewed like a
// golden diff.

// envelopeK fixes the operating point the fixtures pin.
const envelopeK = 8

// envelopeApps are the Basic-kind applications the envelope tracks.
var envelopeApps = []string{"BFS", "GEMM", "SM"}

// EnvelopePath returns the fixture path for one GPU preset's error
// envelope: testdata/epoch/<gpu>.envelope.
func EnvelopePath(gpuName string) string {
	return filepath.Join("testdata", "epoch", gpuName+".envelope")
}

// envelopeHeader identifies the fixture format and operating point
// ("threads=4" is part of format 1: the committed fixtures were written
// when a relaxed run named a thread count, which never changed a result).
var envelopeHeader = fmt.Sprintf("swiftsim-epoch-envelope 1 kind=%s k=%d threads=4",
	sim.Basic, envelopeK)

// relErrPermille returns |got-want| / want in permille, rounded up.
func relErrPermille(want, got uint64) uint64 {
	d := got - want
	if got < want {
		d = want - got
	}
	if want == 0 {
		if d == 0 {
			return 0
		}
		return 1000
	}
	return (d*1000 + want - 1) / want
}

// parseEnvelope reads a committed envelope fixture into app → max permille.
func parseEnvelope(t *testing.T, path string) map[string]uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing envelope fixture (regenerate with -update): %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != envelopeHeader {
		t.Fatalf("envelope fixture %s has header %q, want %q (regenerate with -update)",
			path, lines[0], envelopeHeader)
	}
	out := make(map[string]uint64)
	for _, ln := range lines[1:] {
		var app string
		var p uint64
		if _, err := fmt.Sscanf(ln, "%s %d", &app, &p); err != nil {
			t.Fatalf("envelope fixture %s: bad line %q: %v", path, ln, err)
		}
		out[app] = p
	}
	return out
}

// TestEpochRelaxedEnvelope is the accuracy oracle: per-preset, per-app
// relative cycle error of the k=8 relaxed Basic run against its serial
// baseline, bounded by the committed envelope.
func TestEpochRelaxedEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("envelope oracle runs the full preset sweep")
	}
	for _, gpu := range DefaultCorpus().GPUs {
		gpu := gpu
		t.Run(gpu.Name, func(t *testing.T) {
			got := make(map[string]uint64, len(envelopeApps))
			for _, name := range envelopeApps {
				app, err := workload.Generate(name, 0.25)
				if err != nil {
					t.Fatal(err)
				}
				base, err := sim.Run(app, gpu, sim.Options{Kind: sim.Basic})
				if err != nil {
					t.Fatalf("%s serial: %v", name, err)
				}
				relaxed, err := sim.Run(app, gpu, sim.Options{Kind: sim.Basic, EpochCycles: envelopeK})
				if err != nil {
					t.Fatalf("%s relaxed: %v", name, err)
				}
				got[name] = relErrPermille(base.Cycles, relaxed.Cycles)
				t.Logf("%s: serial %d cycles, k=%d relaxed %d cycles, error %d‰",
					name, base.Cycles, envelopeK, relaxed.Cycles, got[name])
			}
			path := EnvelopePath(gpu.Name)
			if *update {
				var b strings.Builder
				b.WriteString(envelopeHeader + "\n")
				for _, name := range envelopeApps {
					fmt.Fprintf(&b, "%s %d\n", name, got[name])
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want := parseEnvelope(t, path)
			for _, name := range envelopeApps {
				bound, ok := want[name]
				if !ok {
					t.Errorf("%s missing from envelope fixture %s (regenerate with -update)", name, path)
					continue
				}
				if got[name] > bound {
					t.Errorf("%s: k=%d relative cycle error %d‰ exceeds the committed envelope %d‰ (regenerate with -update if intended)",
						name, envelopeK, got[name], bound)
				}
			}
		})
	}
}

// --- The relaxed-bytes pin -------------------------------------------------

// epochDigestsPath is the fixture of TestEpochRelaxedBytesPinned: one line
// per run, "app gpu kind k sha256(Canonical)".
var epochDigestsPath = filepath.Join("testdata", "epoch_digests.txt")

// TestEpochRelaxedBytesPinned pins every byte of a relaxed run's canonical
// result. The envelope oracle above only bounds a relaxed run's cycle error
// against the exact run; this one says the relaxed schedule itself, a pure
// function of (assembly, k), has not moved: all 20 apps under Basic at
// k = 4 and 8, plus Detailed and L2Hybrid on three apps at k = 8. The
// fixture was generated on the sharded engine this one replaced, two shards
// on two worker goroutines, so it is also the record that collapsing the
// shards into one segment moved nothing.
func TestEpochRelaxedBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("the pin runs 46 cycle-accurate simulations")
	}
	type run struct {
		app  string
		kind sim.Kind
		k    int
	}
	var runs []run
	for _, app := range workload.Names() {
		for _, k := range []int{4, 8} {
			runs = append(runs, run{app, sim.Basic, k})
		}
	}
	for _, kind := range []sim.Kind{sim.Detailed, sim.L2Hybrid} {
		for _, app := range []string{"BFS", "GEMM", "HOTSPOT"} {
			runs = append(runs, run{app, kind, 8})
		}
	}
	gpu := DefaultCorpus().GPUs[0]
	var got strings.Builder
	for _, r := range runs {
		app, err := workload.Generate(r.app, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(app, gpu, sim.Options{Kind: r.kind, EpochCycles: r.k})
		if err != nil {
			t.Fatalf("%s/%s k=%d: %v", r.kind, r.app, r.k, err)
		}
		fmt.Fprintf(&got, "%s %s %s %d %x\n", r.app, gpu.Name, r.kind, r.k, sha256.Sum256(Canonical(res)))
	}
	if *update {
		if err := os.WriteFile(epochDigestsPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(epochDigestsPath)
	if err != nil {
		t.Fatalf("missing digest fixture (regenerate with -update): %v", err)
	}
	if d := DiffLines(want, []byte(got.String()), 20); d != "" {
		t.Errorf("relaxed results moved from %s (regenerate with -update only if intended):\n%s", epochDigestsPath, d)
	}
}
