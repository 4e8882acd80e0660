package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The smoke test runs every workload once, in-process and at a tenth of
// the scale, so it checks what the benchmark prints and counts, not how
// fast anything is.

const smokeScale = 0.1

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bm
}

func asJSON(defs []metricDef) []metricJSON {
	out := make([]metricJSON, len(defs))
	for i, m := range defs {
		out[i] = metricJSON{m.Name, m.Unit, m.Better, m.Bound}
	}
	return out
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// printedNames returns the first field of every indented table row.
func printedNames(t *testing.T, out []byte) []string {
	t.Helper()
	var names []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !strings.HasPrefix(sc.Text(), "  ") || len(fields) < 3 {
			continue
		}
		switch fields[0] {
		case "metric", "ops", "FAILED":
			continue
		}
		if !nameRE.MatchString(fields[0]) {
			t.Errorf("printed name %q does not match %v", fields[0], nameRE)
		}
		names = append(names, fields[0])
	}
	sort.Strings(names)
	return names
}

func sortedNames(defs []metricJSON) []string {
	names := make([]string, len(defs))
	for i, m := range defs {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the tables the
// program prints from: same workloads and reasons, same metrics with the
// same units, directions and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bm := loadBenchmarkJSON(t)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.Name || bm.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bm.Workloads[i].Name, w.Name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name, or a reason that is not one line of at most 200 characters", w.Name)
		}
	}
	if got, want := bm.EndToEnd, asJSON(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", got, want)
	}
	if got, want := bm.PerLayer, asJSON(perLayer()); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", got, want)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(asJSON(endToEnd), asJSON(perLayer())...) {
		if !nameRE.MatchString(m.Name) || len(m.Name) > 64 || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside [0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bm.Paths) != 1 || bm.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bm.Paths)
	}
}

// TestSmoke: every workload completes with no failed op and prints
// exactly the end-to-end metrics BENCHMARK.json lists; a traced run
// prints exactly its per-layer metrics.
func TestSmoke(t *testing.T) {
	bm := loadBenchmarkJSON(t)
	o := runOptions{Seed: 1, Passes: 1, Scale: smokeScale, OutDir: t.TempDir(), Exec: inProcess{}}.withRigs()
	for _, w := range bm.Workloads {
		res, err := measure(w.Name, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.OpsFailed != 0 || res.Ops == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.Name, res.OpsFailed, res.Ops, res.Failures)
		}
		if len(res.ResultDigest) != 64 {
			t.Errorf("%s: result_digest %q", w.Name, res.ResultDigest)
		}
		var out bytes.Buffer
		printResult(&out, res, false)
		if got, want := printedNames(t, out.Bytes()), sortedNames(bm.EndToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s printed end-to-end metrics %v, BENCHMARK.json lists %v", w.Name, got, want)
		}
		for _, m := range bm.EndToEnd {
			want := 1
			if m.Name == "setup_s" {
				want += setupSamples
			}
			if s := res.EndToEnd[m.Name]; s.N != want || s.Median <= 0 {
				t.Errorf("%s: %s = %+v, want %d positive samples", w.Name, m.Name, s, want)
			}
		}
		metrics := contractRecord(res, false)["metrics"].(map[string]metricValue)
		if len(metrics) != len(bm.EndToEnd) {
			t.Errorf("%s: the result object has %d metrics, want %d", w.Name, len(metrics), len(bm.EndToEnd))
		}
	}

	o.Traced = true
	res, err := measure("memory_corpus", o)
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsFailed != 0 {
		t.Errorf("traced memory_corpus: %d ops failed: %v", res.OpsFailed, res.Failures)
	}
	var out bytes.Buffer
	printResult(&out, res, true)
	if got, want := printedNames(t, out.Bytes()), sortedNames(bm.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run printed %v, BENCHMARK.json lists %v", got, want)
	}
	for _, m := range rigMetrics {
		if res.Layers[m.Name] <= 0 {
			t.Errorf("rig metric %s = %g, want a positive measurement", m.Name, res.Layers[m.Name])
		}
	}
	if res.Layers["reuse.profile_share_pct"] <= 0 || res.Layers["engine.skip_ratio"] <= 0 {
		t.Errorf("memory_corpus ledger lacks its profile share or skip ratio: %v", res.Layers)
	}
	if len(res.spans) == 0 {
		t.Error("the traced pass recorded no spans")
	}
	if err := writeSpans(o.OutDir, []*workloadResult{res}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(o.OutDir + "/trace.json"); err != nil || st.Size() == 0 {
		t.Errorf("trace.json not written: %v", err)
	}
}

// flipLastDigit changes one byte of a canonical block: the last digit of
// its last line.
func flipLastDigit(b []byte) []byte {
	c := append([]byte(nil), b...)
	c[len(c)-2] ^= 1
	return c
}

// TestCorruptedByteIsAFailedOp proves the correctness checks fire: one
// changed canonical byte in the last pass, or in a service reply, is
// counted as a failed op.
func TestCorruptedByteIsAFailedOp(t *testing.T) {
	o := runOptions{Seed: 1, Passes: 2, Scale: smokeScale, OutDir: t.TempDir()}

	o.Exec = inProcess{corrupt: func(pass int, key string, b []byte) []byte {
		if pass == 1 && strings.HasPrefix(key, "BFS/RTX3060/") {
			return flipLastDigit(b)
		}
		return b
	}}
	res, err := measure("memory_corpus", o)
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsFailed != 1 || !strings.Contains(strings.Join(res.Failures, "\n"), "BFS/RTX3060/") {
		t.Errorf("last-pass corruption: ops_failed = %d, failures %v; want exactly the corrupted job", res.OpsFailed, res.Failures)
	}
	if contractRecord(res, false)["correct"] != false {
		t.Error("a run with a failed op reports correct = true")
	}

	blocks := 0
	o.Passes = 1
	o.Exec = inProcess{corrupt: func(_ int, _ string, b []byte) []byte {
		blocks++
		if blocks == 1 {
			return flipLastDigit(b)
		}
		return b
	}}
	res, err = measure("service_local", o)
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsFailed != 1 || !strings.Contains(strings.Join(res.Failures, "\n"), "direct serial run") {
		t.Errorf("service reply corruption: ops_failed = %d, failures %v; want one mismatch against the direct run", res.OpsFailed, res.Failures)
	}
}

// TestHostReading: the calibration kernels run and give a plausible
// reading; the in-process executor above never calls them.
func TestHostReading(t *testing.T) {
	if f := hostReading(); f < 0.05 || f > 50 {
		t.Errorf("host reading %g, want within 20x of the bench host's 1.0", f)
	}
}

// TestClassify checks the attribution rule on hand-made stacks.
func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "swiftsim/internal/cache.(*Timed).Tick", "swiftsim/internal/engine.(*Engine).Run"}, "cache"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "swiftsim/internal/smcore.(*SM).Tick"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime_sched"},
		{[]string{"swiftsim/internal/sim.Run", "main.runSimPass"}, "other"},
		{[]string{"net/http.(*conn).serve"}, "other"},
		{[]string{"swiftsim/internal/mem.GetRequest", "swiftsim/internal/smcore.(*LDSTUnit).Tick"}, "smcore"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
