package regress

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"swiftsim/internal/sim"
	"swiftsim/internal/workload"
)

// update regenerates the golden fixtures instead of comparing against them:
//
//	go test ./internal/regress/ -run Golden -update
//
// Regenerate only when a metrics change is intended, and review the fixture
// diff like any other code change.
var update = flag.Bool("update", false, "rewrite golden fixtures from the current simulator output")

// goldenCorpus trims the committed corpus under -short so the suite stays
// quick in short mode while CI and the verify recipe cover all 60 cases.
func goldenCorpus(t testing.TB) Corpus {
	c := DefaultCorpus()
	if testing.Short() {
		c.Apps = []string{"BFS", "HOTSPOT", "GEMM", "ADI", "SM", "GRU"}
		c.GPUs = c.GPUs[:1]
	}
	return c
}

// TestGoldenCorpus pins the canonical metrics of every corpus case to its
// committed fixture. Any metrics drift — cycles, counters, derived rates —
// fails with a line diff; `-update` regenerates the fixtures.
func TestGoldenCorpus(t *testing.T) {
	corpus := goldenCorpus(t)
	for _, cs := range corpus.Cases() {
		t.Run(cs.GPU.Name+"/"+cs.App, func(t *testing.T) {
			res, err := cs.Run()
			if err != nil {
				t.Fatalf("simulation failed: %v", err)
			}
			got := Canonical(res)
			path := GoldenPath(cs.GPU.Name, cs.App)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (regenerate with -update): %v", err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("canonical metrics drifted from %s (regenerate with -update if intended):\n%s",
					path, DiffLines(want, got, 20))
			}
		})
	}
}

// TestGoldenCorpusEngineThreads re-runs the committed golden corpus with
// the deprecated EngineThreads field set, as the frozen benchmark harness
// and stored specs still set it, and requires each case to stay
// byte-identical to its fixture: nothing reads the field.
func TestGoldenCorpusEngineThreads(t *testing.T) {
	corpus := goldenCorpus(t)
	for _, threads := range []int{1, 2} {
		for _, cs := range corpus.Cases() {
			cs := cs
			cs.Opts.EngineThreads = threads
			t.Run(cs.GPU.Name+"/"+cs.App, func(t *testing.T) {
				res, err := cs.Run()
				if err != nil {
					t.Fatalf("simulation failed at EngineThreads=%d: %v", threads, err)
				}
				want, err := os.ReadFile(GoldenPath(cs.GPU.Name, cs.App))
				if err != nil {
					t.Fatalf("missing golden fixture: %v", err)
				}
				if got := Canonical(res); !bytes.Equal(want, got) {
					t.Errorf("EngineThreads=%d drifted from the golden fixture:\n%s",
						threads, DiffLines(want, got, 20))
				}
			})
		}
	}
}

// TestEngineThreadsCycleAccurateKinds is the same check where the field used
// to matter: on the configurations whose SMs and L1s tick cycle by cycle —
// Detailed, Basic and L2Hybrid — a run with EngineThreads set must match
// the run without it byte for byte.
func TestEngineThreadsCycleAccurateKinds(t *testing.T) {
	cases := map[sim.Kind][]string{
		sim.Basic:    {"BFS", "GEMM", "SM"},
		sim.L2Hybrid: {"BFS", "GEMM"},
		sim.Detailed: {"GEMM", "HOTSPOT"},
	}
	if testing.Short() {
		cases = map[sim.Kind][]string{sim.Basic: {"GEMM"}, sim.Detailed: {"GEMM"}}
	}
	gpu := DefaultCorpus().GPUs[0]
	for kind, apps := range cases {
		for _, name := range apps {
			app, err := workload.Generate(name, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			base, err := sim.Run(app, gpu, sim.Options{Kind: kind})
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, name, err)
			}
			res, err := sim.Run(app, gpu, sim.Options{Kind: kind, EngineThreads: 4})
			if err != nil {
				t.Fatalf("%s/%s EngineThreads=4: %v", kind, name, err)
			}
			if want, got := Canonical(base), Canonical(res); !bytes.Equal(want, got) {
				t.Errorf("%s/%s: EngineThreads=4 diverged from the run without it:\n%s", kind, name, DiffLines(want, got, 20))
			}
		}
	}
}

// TestGoldenFixturesComplete fails if the committed fixture set and the
// corpus definition fall out of sync in either direction.
func TestGoldenFixturesComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("fixture inventory covers the full corpus")
	}
	corpus := DefaultCorpus()
	want := make(map[string]bool)
	for _, cs := range corpus.Cases() {
		want[GoldenPath(cs.GPU.Name, cs.App)] = true
	}
	for path := range want {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("corpus case has no fixture: %s (run go test ./internal/regress/ -run Golden -update)", path)
		}
	}
	matches, err := filepath.Glob(filepath.Join("testdata", "golden", "*", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if !want[m] {
			t.Errorf("stale fixture not in corpus: %s", m)
		}
	}
	if len(matches) == 0 && !*update {
		t.Error("no golden fixtures found")
	}
}

// TestCanonicalExcludesWallClock guards the one intentional omission: wall
// time is the only nondeterministic result field and must never leak into
// the canonical form.
func TestCanonicalExcludesWallClock(t *testing.T) {
	cs := Case{App: "BFS", Scale: 0.1, GPU: DefaultCorpus().GPUs[0], Opts: DefaultCorpus().Opts}
	res, err := cs.Run()
	if err != nil {
		t.Fatal(err)
	}
	c1 := Canonical(res)
	res.Wall *= 17 // perturb the nondeterministic field
	if !bytes.Equal(c1, Canonical(res)) {
		t.Error("canonical form depends on wall-clock time")
	}
	if bytes.Contains(c1, []byte(res.Wall.String())) {
		t.Error("canonical form contains the wall-clock duration")
	}
}

// TestDiffLines pins the failure-diff rendering.
func TestDiffLines(t *testing.T) {
	want := []byte("a\nb\nc\n")
	got := []byte("a\nB\nc\n")
	d := DiffLines(want, got, 0)
	if d != "line 2: -b\nline 2: +B\n" {
		t.Errorf("unexpected diff:\n%s", d)
	}
	if d := DiffLines(want, want, 0); d != "" {
		t.Errorf("diff of identical inputs = %q", d)
	}
	// Truncation names the residue.
	many := DiffLines([]byte("a\nb\nc\nd\n"), []byte("1\n2\n3\n4\n"), 2)
	if !bytes.Contains([]byte(many), []byte("more differing lines")) {
		t.Errorf("truncated diff missing residue note:\n%s", many)
	}
}
