// Command bench is the repository's benchmark: six workloads that drive
// the simulator, the runner and the sweep service from outside, through
// their public functions only; seven end-to-end metrics with regression
// bounds; and, on a traced run, a per-layer ledger. BENCHMARK.json at the
// repository root names the same workloads and metrics and the command
// that runs this program; README.md here is the manual.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		child    = fs.Bool("child", false, "internal: serve one request from standard input (a pass, the reference, or the rigs)")
		workload = fs.String("workload", "", "run one workload (default: all six)")
		seed     = fs.Uint64("seed", 1, "seed of the job order and the rigs' address streams")
		seconds  = fs.Float64("seconds", 12, "how long one workload's passes may take together")
		passes   = fs.Int("passes", 0, "run exactly this many passes per workload instead of filling -seconds")
		trace    = fs.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
		traced   = fs.Bool("traced", false, "same as -trace 1")
		asJSON   = fs.Bool("json", false, "print one machine-readable record instead of the tables")
		check    = fs.Bool("check", false, "run the end-to-end set twice and compare the medians against the bounds")
		out      = fs.String("out", defaultOutDir(), "directory for scratch files, CPU profiles and trace.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *child {
		return childMain(stdin, stdout)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	exec, err := newChildren()
	if err != nil {
		return err
	}
	o := runOptions{
		Seed: *seed, Seconds: *seconds, Passes: *passes,
		Traced: *traced || *trace == 1, Scale: baseScale, OutDir: *out, Exec: exec,
	}.withRigs()
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	if *check {
		return runCheck(stdout, names, o)
	}

	var results []*workloadResult
	for _, name := range names {
		res, err := measure(name, o)
		if err != nil {
			return err
		}
		results = append(results, res)
		if !*asJSON {
			printResult(stdout, res, o.Traced)
		}
	}
	if err := writeSpans(*out, results); err != nil {
		return err
	}
	switch {
	case *asJSON:
		return encodeJSON(stdout, fullRecord(results))
	case len(results) == 1:
		// The driver's contract: the last line of standard output is one
		// JSON object for the one workload run.
		return encodeJSON(stdout, contractRecord(results[0], o.Traced))
	}
	return nil
}

// defaultOutDir is bench/out from the repository root and out from
// inside bench/.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}

func encodeJSON(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// printResult prints one workload's metrics by name, with units.
func printResult(w io.Writer, r *workloadResult, traced bool) {
	fmt.Fprintf(w, "workload %s  seed %d  scale %.3f  passes %d  host_cores %d  gomaxprocs %d  host_factor %.3f\n",
		r.Name, r.Seed, r.Scale, r.Passes, r.Cores, r.Procs, r.HostFactor)
	if traced {
		for _, m := range perLayer() {
			fmt.Fprintf(w, "  %-30s %16s %-10s\n", m.Name, formatValue(r.Layers[m.Name]), m.Unit)
		}
	} else {
		fmt.Fprintf(w, "  %-18s %14s %-9s %14s %14s %3s  %s\n", "metric", "median", "unit", "min", "max", "n", "bound")
		for _, m := range endToEnd {
			s := r.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-18s %14s %-9s %14s %14s %3d  %g%% %s\n", m.Name,
				formatValue(s.Median), m.Unit, formatValue(s.Min), formatValue(s.Max), s.N, m.Bound*100, m.Better)
		}
	}
	fmt.Fprintf(w, "  ops %d  ops_failed %d  result_digest %s\n", r.Ops, r.OpsFailed, r.ResultDigest)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

func formatValue(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractRecord is the driver's result object for one workload: every
// end-to-end metric of an untraced run, every per-layer metric of a
// traced one, each value as measured.
func contractRecord(r *workloadResult, traced bool) map[string]any {
	metrics := map[string]metricValue{}
	if traced {
		for _, m := range perLayer() {
			metrics[m.Name] = metricValue{r.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = metricValue{r.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	return map[string]any{
		"correct":   r.OpsFailed == 0,
		"attempted": r.Ops,
		"failed":    r.OpsFailed,
		"metrics":   metrics,
	}
}

// fullRecord is -json's output: workload → metric → {median, min, max, n,
// unit, bound}, plus each workload's counts, digest and ledger.
func fullRecord(results []*workloadResult) map[string]any {
	type row struct {
		stat
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	}
	out := map[string]any{}
	for _, r := range results {
		rows := map[string]row{}
		for _, m := range endToEnd {
			rows[m.Name] = row{r.EndToEnd[m.Name], m.Unit, m.Bound}
		}
		out[r.Name] = map[string]any{
			"seed": r.Seed, "scale": r.Scale, "passes": r.Passes,
			"host_cores": r.Cores, "gomaxprocs": r.Procs,
			"host_factor": r.HostFactor,
			"end_to_end":  rows, "per_layer": r.Layers,
			"ops": r.Ops, "ops_failed": r.OpsFailed, "failures": r.Failures,
			"result_digest": r.ResultDigest,
		}
	}
	return out
}

// runCheck runs the end-to-end set twice on the same tree and compares
// the two medians of every (metric, workload) pair against the metric's
// bound. A pair whose medians differ by more than the bound is
// unresolved: the benchmark cannot tell a regression of that size from
// its own run-to-run spread, so the bound is not yet verified.
func runCheck(w io.Writer, names []string, o runOptions) error {
	o.Traced = false
	var runs [2]map[string]*workloadResult
	for i := range runs {
		runs[i] = map[string]*workloadResult{}
		for _, name := range names {
			res, err := measure(name, o)
			if err != nil {
				return err
			}
			runs[i][name] = res
		}
	}
	unresolved, failed := 0, 0
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "median_1", "median_2", "diff", "bound", "verdict")
	for _, name := range names {
		a, b := runs[0][name], runs[1][name]
		failed += a.OpsFailed + b.OpsFailed
		for _, m := range endToEnd {
			m1, m2 := a.EndToEnd[m.Name].Median, b.EndToEnd[m.Name].Median
			diff := 0.0
			if m1 != 0 {
				diff = (m2 - m1) / m1
			}
			verdict := "ok"
			if math.Abs(diff) > m.Bound {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(w, "%-16s %-18s %14s %14s %+8.2f%% %6.1f%%  %s\n", name, m.Name,
				formatValue(m1), formatValue(m2), diff*100, m.Bound*100, verdict)
		}
	}
	var problems []string
	if unresolved > 0 {
		problems = append(problems, fmt.Sprintf("%d pairs unresolved", unresolved))
	}
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d ops failed", failed))
	}
	if len(problems) > 0 {
		return fmt.Errorf("check: %s", strings.Join(problems, ", "))
	}
	fmt.Fprintln(w, "check: every pair within its bound, no failed ops")
	return nil
}
