// Command sweep regenerates the paper's evaluation artifacts: Table I,
// Table II, Figure 4 (error + speedup on the RTX 2080 Ti), Figure 5
// (speedup contribution analysis) and Figure 6 (error across three GPUs).
//
// Sweeps are fault tolerant: a job that fails (bad trace, unschedulable
// kernel, per-job timeout, panic inside a module) is excluded from its
// figure and reported, while the remaining jobs complete. Ctrl-C cancels
// the whole sweep promptly.
//
// Exit codes: 0 — everything succeeded; 1 — the sweep itself could not run
// (bad flags, unknown experiment or application); 2 — the sweep completed
// but one or more jobs failed (figures rendered from the successful
// subset).
//
// Usage:
//
//	sweep -exp fig4 [-scale 1.0] [-apps BFS,NW,GRU] [-threads 8] [-job-timeout 2m]
//	sweep -exp all
//
// The execution-mode flags (-epoch-cycles, -sample, -sample-frac,
// -sample-stride) are the block every front end shares (cliutil.RunFlags);
// here they are the default every simulation of the experiment is overlaid
// on. fig4 always runs exact, and with -sample its wall-clock columns
// measure the sampled runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"swiftsim/internal/cliutil"
	"swiftsim/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(realMain(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the sweep and returns the process exit code. Split from
// main so tests can drive the full command, including exit codes.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: table1|table2|fig4|fig5|fig6|all")
	scale := fs.Float64("scale", 1.0, "workload problem scale")
	apps := fs.String("apps", "", "comma-separated application subset (default: all 20)")
	threads := fs.Int("threads", 0, "parallel workers for the fig5 and fig6 sweeps (0 = NumCPU; fig4 measures single-thread wall clock and always runs serially)")
	runFlags := cliutil.RunFlags(fs)
	jobTimeout := fs.Duration("job-timeout", 0, "per-job wall-clock deadline (0 = none)")
	openTrace := cliutil.TraceFlags(fs, "the sweep")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	defaults, err := runFlags()
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "sweep: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "sweep: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "sweep: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "sweep: -memprofile: %v\n", err)
			}
		}()
	}

	tracer, closeTrace, err := openTrace("sweep", stderr)
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}
	defer closeTrace()

	p := experiments.Params{
		Scale:      *scale,
		Threads:    *threads,
		Defaults:   defaults,
		Ctx:        ctx,
		JobTimeout: *jobTimeout,
		Trace:      tracer,
	}
	if list := cliutil.SplitList(*apps); len(list) > 0 {
		p.Apps = list
	}

	var failures []experiments.Failure
	run := func(name string) error {
		switch name {
		case "table1":
			experiments.Table1(stdout)
		case "table2":
			experiments.Table2(stdout)
		case "fig4":
			res, err := experiments.Figure4(p)
			if err != nil {
				return err
			}
			res.Print(stdout)
			failures = append(failures, res.Failed...)
		case "fig5":
			res, err := experiments.Figure5(p)
			if err != nil {
				return err
			}
			res.Print(stdout)
			failures = append(failures, res.Failed...)
		case "fig6":
			res, err := experiments.Figure6(p)
			if err != nil {
				return err
			}
			res.Print(stdout)
			failures = append(failures, res.Failed...)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "table2", "fig4", "fig5", "fig6"}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := run(name); err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "sweep: %d job(s) failed; figures rendered from the successful subset:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(stderr, "  %s\n", f)
		}
		return 2
	}
	return 0
}
