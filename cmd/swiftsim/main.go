// Command swiftsim simulates one GPU application and prints the gathered
// performance metrics.
//
// The application comes either from a .sgt trace file (-trace) or from the
// bundled synthetic workload catalog (-app, -scale). The hardware
// configuration comes from a preset (-gpu) or a configuration file
// (-config); the simulator configuration from -sim. The execution-mode
// flags (-epoch-cycles, -sample, -sample-frac, -sample-stride) are the
// block every front end shares (cliutil.RunFlags). -snapshot-at checkpoints
// the run at the first kernel boundary at or after the given cycle, under
// every simulator, and -restore resumes from there.
//
// Examples:
//
//	swiftsim -app BFS -sim memory
//	swiftsim -trace run.sgt -config mygpu.cfg -sim detailed -metrics
//	swiftsim -app GEMM -sim detailed -epoch-cycles 8
//	swiftsim -app GRU -sim basic -sample
//	swiftsim -app BFS -sim basic -snapshot-at 5000 -snapshot-out warm.snap
//	swiftsim -app BFS -sim basic -restore warm.snap
//	swiftsim -list
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"swiftsim"
	"swiftsim/internal/cliutil"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(realMain(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command and returns the process exit code. Split from
// main so tests can drive the full command, including flag parsing and
// exit codes.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if err := run(ctx, args, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "swiftsim:", err)
		return 1
	}
	return 0
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swiftsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "", "bundled workload name (see -list)")
	scale := fs.Float64("scale", 1.0, "workload problem scale")
	tracePath := fs.String("trace", "", ".sgt trace file to simulate instead of -app")
	gpuName := fs.String("gpu", "RTX2080Ti", "GPU preset: RTX2080Ti|RTX3060|RTX3090")
	cfgPath := fs.String("config", "", "hardware configuration file (overrides -gpu)")
	simName := fs.String("sim", "detailed", "simulator: detailed|basic|memory|l2")
	hitSrc := fs.String("hitrates", "functional", "memory-model hit-rate source: functional|reuse")
	runFlags := cliutil.RunFlags(fs)
	snapshotAt := fs.Uint64("snapshot-at", 0, "write a snapshot at the first kernel boundary at or after this cycle (requires -snapshot-out)")
	snapshotOut := fs.String("snapshot-out", "", "snapshot output file (see -snapshot-at; cycle 0 checkpoints before the first kernel)")
	restorePath := fs.String("restore", "", "resume from a snapshot file written by -snapshot-out (app and config must match)")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline for the simulation (0 = none)")
	showMetrics := fs.Bool("metrics", false, "print the full Metrics Gatherer report")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON file (load in chrome://tracing)")
	traceLevel := fs.String("trace-level", "module", "trace detail: off|kernel|module|request")
	traceCSV := fs.String("trace-csv", "", "write the per-kernel counter timeline as CSV")
	traceStalls := fs.Bool("trace-stalls", false, "print the top stall reasons after the run")
	list := fs.Bool("list", false, "list bundled workloads and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := runFlags()
	if err != nil {
		return err
	}
	if *snapshotAt > 0 && *snapshotOut == "" {
		return fmt.Errorf("-snapshot-at requires -snapshot-out")
	}

	if *list {
		fmt.Fprintf(stdout, "%-12s %-10s %-4s %s\n", "NAME", "SUITE", "MEM", "DESCRIPTION")
		for _, wi := range swiftsim.WorkloadCatalog() {
			mem := ""
			if wi.MemoryBound {
				mem = "yes"
			}
			fmt.Fprintf(stdout, "%-12s %-10s %-4s %s\n", wi.Name, wi.Suite, mem, wi.Description)
		}
		return nil
	}

	var gpu swiftsim.GPU
	if *cfgPath != "" {
		if gpu, err = swiftsim.LoadGPU(*cfgPath); err != nil {
			return err
		}
	} else {
		var ok bool
		if gpu, ok = swiftsim.GPUPreset(*gpuName); !ok {
			return fmt.Errorf("unknown GPU preset %q", *gpuName)
		}
	}

	var app *swiftsim.App
	switch {
	case *tracePath != "":
		app, err = swiftsim.ReadTrace(*tracePath)
	case *appName != "":
		app, err = swiftsim.GenerateWorkload(*appName, *scale)
	default:
		return fmt.Errorf("one of -app or -trace is required (or -list)")
	}
	if err != nil {
		return err
	}

	// The snapshot is staged in memory and written only after a successful
	// run, so a failed simulation never leaves a truncated snapshot file.
	var snapBuf bytes.Buffer
	if *snapshotOut != "" {
		cfg.SnapshotAt = *snapshotAt
		cfg.SnapshotTo = &snapBuf
	}
	if *restorePath != "" {
		data, err := os.ReadFile(*restorePath)
		if err != nil {
			return err
		}
		cfg.RestoreFrom = bytes.NewReader(data)
	}
	if cfg.Kind, err = swiftsim.ParseSimulator(*simName); err != nil {
		return err
	}
	switch *hitSrc {
	case "functional":
		cfg.HitRates = swiftsim.FunctionalCaches
	case "reuse":
		cfg.HitRates = swiftsim.ReuseDistance
	default:
		return fmt.Errorf("unknown hit-rate source %q (want functional|reuse)", *hitSrc)
	}

	// Observability: assemble the requested trace sinks. The JSON stream
	// writes as the simulation runs; the ring buffers events for the CSV
	// and stall views. The recorder is closed on every exit path (deferred
	// immediately after creation) so even a failed or interrupted run
	// leaves a well-terminated, loadable JSON file.
	level, err := swiftsim.ParseTraceLevel(*traceLevel)
	if err != nil {
		return err
	}
	var recs []swiftsim.TraceRecorder
	var ring *swiftsim.TraceRing
	if level == swiftsim.TraceOff && (*traceOut != "" || *traceCSV != "" || *traceStalls) {
		// Output flags with the level forced off write nothing; warn so
		// the missing files are attributable to the flag combination.
		fmt.Fprintln(stderr, "swiftsim: warning: trace output flags ignored because -trace-level is off; no trace output will be written")
	}
	if *traceOut != "" && level != swiftsim.TraceOff {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		recs = append(recs, swiftsim.NewTraceJSON(f))
	}
	if (*traceCSV != "" || *traceStalls) && level != swiftsim.TraceOff {
		ring = swiftsim.NewTraceRing(0)
		recs = append(recs, ring)
	}
	if len(recs) > 0 {
		rec := swiftsim.TraceMulti(recs...)
		defer rec.Close()
		cfg.Trace = swiftsim.NewTracer(rec, level)
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := swiftsim.SimulateCtx(ctx, app, gpu, cfg)
	if err != nil {
		return err
	}
	if *snapshotOut != "" {
		if err := os.WriteFile(*snapshotOut, snapBuf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "snapshot     %s (%d bytes, requested at cycle %d)\n",
			*snapshotOut, snapBuf.Len(), *snapshotAt)
	}

	fmt.Fprintf(stdout, "app          %s\n", res.App)
	fmt.Fprintf(stdout, "gpu          %s\n", res.GPUName)
	fmt.Fprintf(stdout, "simulator    %s\n", res.Kind)
	fmt.Fprintf(stdout, "cycles       %d\n", res.Cycles)
	fmt.Fprintf(stdout, "instructions %d\n", res.Instructions)
	fmt.Fprintf(stdout, "wall time    %s\n", res.Wall)
	fmt.Fprintf(stdout, "ticked       %d cycles, fast-forwarded %d\n", res.TickedCycles, res.SkippedCycles)
	if res.Sampled {
		fmt.Fprintf(stdout, "sampling     sampled run; cycles include analytical extrapolation\n")
	}
	if len(res.KernelCycles) > 1 {
		fmt.Fprintf(stdout, "kernels      ")
		for i, kc := range res.KernelCycles {
			if i > 0 {
				fmt.Fprint(stdout, " ")
			}
			fmt.Fprintf(stdout, "%d", kc)
		}
		fmt.Fprintln(stdout)
	}
	if *showMetrics {
		fmt.Fprintln(stdout, "--- metrics ---")
		if err := swiftsim.WriteMetricsReport(stdout, res); err != nil {
			return err
		}
	}
	if ring != nil {
		if *traceCSV != "" {
			f, err := os.Create(*traceCSV)
			if err != nil {
				return err
			}
			if err := swiftsim.WriteTraceCounterCSV(f, ring.Events()); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		if *traceStalls {
			fmt.Fprintln(stdout, "--- stalls ---")
			if err := swiftsim.WriteTraceStallSummary(stdout, ring.Events(), nil, 10); err != nil {
				return err
			}
		}
	}
	return nil
}
