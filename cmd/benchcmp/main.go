// Command benchcmp compares two `go test -bench` output files and prints a
// per-benchmark speedup table, in the spirit of benchstat but dependency
// free. Run each side with -count N (N >= 5 recommended); benchcmp
// aggregates repeated runs of a benchmark by median, which is robust to
// the occasional scheduling outlier.
//
// Usage:
//
//	go test -bench=. -count 5 > old.txt
//	... apply the optimization ...
//	go test -bench=. -count 5 > new.txt
//	benchcmp old.txt new.txt
//
// Exit codes: 0 — comparison printed; 1 — bad input or I/O error.
// With -gate X, exit 2 if the geometric-mean speedup falls below X
// (used by `make benchcmp` as a regression tripwire).
//
// -within 'A,B,ratio' gates a pair of benchmarks inside the NEW file:
// median(A) must be at least ratio × median(B), matching names with the
// -cpu suffix (-8 etc.) ignored. `make benchcmp` uses it to require the
// sampled corpus run to beat the exact one by the committed speedup floor.
//
// -metric selects any column unit present in the files, including the
// -benchmem columns (B/op, allocs/op). -max 'NAME,ceiling' (repeatable)
// gates an absolute value in the NEW file: median(NAME) must not exceed
// ceiling — `make benchcmp` uses it with `-metric allocs/op` to hold whole
// simulations under their allocation ceilings. When the old file
// predates -benchmem and lacks the metric entirely, -max still runs (the
// comparison table is skipped with a note); the ceiling is about the new
// code, not the baseline.
//
// -json FILE additionally writes the comparison — per-benchmark rows,
// geomean, and the outcome of any -gate/-within/-max checks — as JSON,
// the machine-readable record behind the committed BENCH_PR*.json files.
// The file is written even when a gate fails, so CI retains what tripped.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	metric := fs.String("metric", "ns/op", "metric to compare (any unit present in the files, including -benchmem's B/op and allocs/op)")
	gate := fs.Float64("gate", 0, "fail (exit 2) if geomean speedup < this (0 = no gate)")
	within := fs.String("within", "", "'A,B,ratio': fail (exit 2) unless median(A) >= ratio*median(B) in the new file (-cpu suffixes ignored)")
	var maxSpecs stringList
	fs.Var(&maxSpecs, "max", "'NAME,ceiling': fail (exit 2) if median(NAME) in the new file exceeds ceiling (-cpu suffixes ignored; repeatable)")
	jsonOut := fs.String("json", "", "also write the comparison (rows, geomean, gates) as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchcmp [-metric ns/op] [-gate 1.0] old.txt new.txt")
		return 1
	}
	new_, err := parseFile(fs.Arg(1), *metric)
	if err != nil {
		fmt.Fprintf(stderr, "benchcmp: %v\n", err)
		return 1
	}
	old, err := parseFile(fs.Arg(0), *metric)
	if err != nil {
		// An old baseline that simply predates the metric (no -benchmem
		// columns, say) cannot block a -max ceiling on the new file: the
		// ceiling is absolute. Anything else is still fatal.
		if !(len(maxSpecs) > 0 && errors.Is(err, errNoMetric)) {
			fmt.Fprintf(stderr, "benchcmp: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "note: old file has no %s samples; comparison skipped, -max gates still apply\n", *metric)
		old = &benchSet{samples: make(map[string][]float64)}
	}

	// Compare benchmarks present on both sides, in the old file's order.
	type row struct {
		name     string
		old, new float64
		speedup  float64
	}
	var rows []row
	for _, name := range old.order {
		nv, ok := new_.samples[name]
		if !ok {
			continue
		}
		o, n := median(old.samples[name]), median(nv)
		r := row{name: name, old: o, new: n}
		if n > 0 {
			r.speedup = o / n
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 && len(maxSpecs) == 0 {
		fmt.Fprintln(stderr, "benchcmp: no common benchmarks")
		return 1
	}

	gm := 0.0
	if len(rows) > 0 {
		w := 4
		for _, r := range rows {
			if len(r.name) > w {
				w = len(r.name)
			}
		}
		fmt.Fprintf(stdout, "%-*s  %14s  %14s  %8s\n", w, "name", "old "+*metric, "new "+*metric, "speedup")
		geo, geoN := 0.0, 0
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-*s  %14s  %14s  %7.2fx\n", w, r.name, fmtVal(r.old), fmtVal(r.new), r.speedup)
			if r.speedup > 0 {
				geo += math.Log(r.speedup)
				geoN++
			}
		}
		if geoN > 0 {
			gm = math.Exp(geo / float64(geoN))
			fmt.Fprintf(stdout, "%-*s  %14s  %14s  %7.2fx\n", w, "geomean", "", "", gm)
		}
	}
	code := 0
	if *gate > 0 && gm < *gate {
		fmt.Fprintf(stderr, "benchcmp: geomean speedup %.2fx below gate %.2fx\n", gm, *gate)
		code = 2
	}
	rep := jsonReport{Metric: *metric, Geomean: round4(gm)}
	if *gate > 0 {
		rep.Gate = &jsonGate{Floor: *gate, Pass: gm >= *gate}
	}
	for _, r := range rows {
		rep.Benchmarks = append(rep.Benchmarks, jsonRow{
			Name: r.name, Old: r.old, New: r.new, Speedup: round4(r.speedup)})
	}
	if *within != "" {
		res, wcode := gateWithin(*within, new_, stdout, stderr)
		rep.Within = res
		if wcode != 0 && (code == 0 || wcode == 1) {
			code = wcode
		}
	}
	for _, spec := range maxSpecs {
		res, mcode := gateMax(spec, *metric, new_, stdout, stderr)
		if res != nil {
			rep.Max = append(rep.Max, *res)
		}
		if mcode != 0 && (code == 0 || mcode == 1) {
			code = mcode
		}
	}
	if *jsonOut != "" {
		// Written on failing gates too: CI keeps a machine-readable record
		// of what tripped.
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "benchcmp: -json: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchcmp: -json: %v\n", err)
			return 1
		}
	}
	return code
}

// jsonReport is the -json output: the comparison table plus the outcome of
// any gates, machine readable for dashboards and the committed BENCH_PR*
// records.
type jsonReport struct {
	Metric     string      `json:"metric"`
	Benchmarks []jsonRow   `json:"benchmarks"`
	Geomean    float64     `json:"geomean"`
	Gate       *jsonGate   `json:"gate,omitempty"`
	Within     *jsonWithin `json:"within,omitempty"`
	Max        []jsonMax   `json:"max,omitempty"`
}

type jsonRow struct {
	Name    string  `json:"name"`
	Old     float64 `json:"old"`
	New     float64 `json:"new"`
	Speedup float64 `json:"speedup"`
}

type jsonGate struct {
	Floor float64 `json:"floor"`
	Pass  bool    `json:"pass"`
}

type jsonWithin struct {
	Numerator   string  `json:"numerator"`
	Denominator string  `json:"denominator"`
	Speedup     float64 `json:"speedup"`
	Floor       float64 `json:"floor"`
	Pass        bool    `json:"pass"`
}

type jsonMax struct {
	Name    string  `json:"name"`
	Median  float64 `json:"median"`
	Ceiling float64 `json:"ceiling"`
	Pass    bool    `json:"pass"`
}

// stringList collects a repeatable flag's values in order.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ";") }
func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// round4 trims float noise so JSON speedups read like the table ("3.8831"
// not "3.883142857142857").
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// gateWithin enforces a -within 'A,B,ratio' constraint against the new
// file's samples: median(A) >= ratio * median(B). The returned jsonWithin
// (nil on malformed specs) records the measurement for -json.
func gateWithin(spec string, set *benchSet, stdout, stderr io.Writer) (*jsonWithin, int) {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		fmt.Fprintf(stderr, "benchcmp: -within wants 'A,B,ratio', got %q\n", spec)
		return nil, 1
	}
	ratio, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil || ratio <= 0 {
		fmt.Fprintf(stderr, "benchcmp: -within: bad ratio %q\n", parts[2])
		return nil, 1
	}
	lookup := func(want string) []float64 {
		want = stripCPUSuffix(strings.TrimSpace(want))
		var out []float64
		for name, v := range set.samples {
			if stripCPUSuffix(name) == want {
				out = append(out, v...)
			}
		}
		return out
	}
	a, b := lookup(parts[0]), lookup(parts[1])
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintf(stderr, "benchcmp: -within: %q or %q not found in the new file\n", parts[0], parts[1])
		return nil, 1
	}
	sp := 0.0
	if mb := median(b); mb > 0 {
		sp = median(a) / mb
	}
	fmt.Fprintf(stdout, "within: %s / %s = %.2fx (floor %.2fx)\n",
		strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), sp, ratio)
	res := &jsonWithin{
		Numerator:   strings.TrimSpace(parts[0]),
		Denominator: strings.TrimSpace(parts[1]),
		Speedup:     round4(sp),
		Floor:       ratio,
		Pass:        sp >= ratio,
	}
	if sp < ratio {
		fmt.Fprintf(stderr, "benchcmp: within-file speedup %.2fx below floor %.2fx\n", sp, ratio)
		return res, 2
	}
	return res, 0
}

// gateMax enforces a -max 'NAME,ceiling' constraint against the new
// file's samples of the current metric: median(NAME) <= ceiling. Unlike
// -gate and -within it is an absolute bound, which is what an
// allocation floor needs — "0 allocs/op" is not a ratio against anything.
func gateMax(spec, metric string, set *benchSet, stdout, stderr io.Writer) (*jsonMax, int) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		fmt.Fprintf(stderr, "benchcmp: -max wants 'NAME,ceiling', got %q\n", spec)
		return nil, 1
	}
	ceiling, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil || ceiling < 0 {
		fmt.Fprintf(stderr, "benchcmp: -max: bad ceiling %q\n", parts[1])
		return nil, 1
	}
	want := stripCPUSuffix(strings.TrimSpace(parts[0]))
	var samples []float64
	for name, v := range set.samples {
		if stripCPUSuffix(name) == want {
			samples = append(samples, v...)
		}
	}
	if len(samples) == 0 {
		fmt.Fprintf(stderr, "benchcmp: -max: %q not found in the new file\n", parts[0])
		return nil, 1
	}
	m := median(samples)
	fmt.Fprintf(stdout, "max: %s = %s %s (ceiling %s)\n", want, fmtVal(m), metric, fmtVal(ceiling))
	res := &jsonMax{Name: want, Median: round4(m), Ceiling: ceiling, Pass: m <= ceiling}
	if m > ceiling {
		fmt.Fprintf(stderr, "benchcmp: %s median %s %s above ceiling %s\n", want, fmtVal(m), metric, fmtVal(ceiling))
		return res, 2
	}
	return res, 0
}

// stripCPUSuffix drops go test's trailing -GOMAXPROCS from a benchmark
// name ("Bench/threads=4-8" -> "Bench/threads=4") so -within specs stay
// host independent.
func stripCPUSuffix(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// benchSet holds the samples of one file: benchmark name -> metric values,
// one per -count repetition.
type benchSet struct {
	samples map[string][]float64
	order   []string
}

func parseFile(path, metric string) (*benchSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f, metric)
}

// parse reads `go test -bench` output: lines starting with "Benchmark",
// whitespace-separated as `name iterations {value unit}...`. The -cpu
// suffix (-8 etc.) is kept — it distinguishes GOMAXPROCS variants.
func parse(r io.Reader, metric string) (*benchSet, error) {
	set := &benchSet{samples: make(map[string][]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		// fields[1] is the iteration count; then (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != metric {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad %s value %q", name, metric, fields[i])
			}
			if _, seen := set.samples[name]; !seen {
				set.order = append(set.order, name)
			}
			set.samples[name] = append(set.samples[name], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(set.samples) == 0 {
		return nil, fmt.Errorf("%w %q", errNoMetric, metric)
	}
	return set, nil
}

// errNoMetric marks a file that parsed fine but carried no samples of the
// requested metric — distinguishable (errors.Is) so realMain can tolerate
// an old baseline that predates -benchmem when only -max gates are asked.
var errNoMetric = errors.New("no benchmark lines with metric")

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// fmtVal renders a metric value compactly with SI-ish scaling.
func fmtVal(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.4gM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.4gk", v/1e3)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
