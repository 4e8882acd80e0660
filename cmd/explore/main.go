// Command explore runs a design-space exploration: it sweeps one hardware
// configuration key over a list of values and simulates a set of workloads
// under a chosen simulator configuration, printing predicted cycles per
// point — the architect workflow Swift-Sim exists to accelerate.
//
// The swept key uses the configuration-file syntax (see cmd/swiftsim
// -config), so any parameter can be explored.
//
// Examples:
//
//	explore -key sm.scheduler -values GTO,LRR,OLDEST -apps BFS,SM -sim memory
//	explore -key l1.sets -values 32,64,128 -apps SRAD -sim basic
//	explore -key gpu.noc_topology -values crossbar,ring -apps SM -sim detailed
//	explore -key l2.sets -values 256,512 -apps GRU -sim basic -sample -sample-frac 0.25
//
// The execution-mode flags (-epoch-cycles, -sample, -sample-frac,
// -sample-stride) are the block every front end shares
// (cliutil.RunFlags) and apply to every point of the sweep.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"swiftsim"
	"swiftsim/internal/cliutil"
	"swiftsim/internal/config"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command and returns the process exit code. Split from
// main so tests can drive the full command, including flag parsing and
// exit codes.
func realMain(args []string, stdout, stderr io.Writer) int {
	if err := run(args, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "explore:", err)
		return 1
	}
	return 0
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	key := fs.String("key", "", "configuration key to sweep (e.g. sm.scheduler, l1.sets)")
	values := fs.String("values", "", "comma-separated values for -key")
	apps := fs.String("apps", "BFS,SM,GEMM", "comma-separated workloads")
	scale := fs.Float64("scale", 0.5, "workload problem scale")
	gpuName := fs.String("gpu", "RTX2080Ti", "base GPU preset")
	simName := fs.String("sim", "memory", "simulator: detailed|basic|memory|l2")
	runFlags := cliutil.RunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := runFlags()
	if err != nil {
		return err
	}

	if *key == "" || *values == "" {
		return fmt.Errorf("-key and -values are required")
	}
	if cfg.Kind, err = swiftsim.ParseSimulator(*simName); err != nil {
		return err
	}

	points := cliutil.SplitList(*values)
	appNames := cliutil.SplitList(*apps)
	if len(points) == 0 {
		return fmt.Errorf("-values %q contains no values", *values)
	}
	if len(appNames) == 0 {
		return fmt.Errorf("-apps %q contains no applications", *apps)
	}

	// Build one GPU per sweep point by round-tripping through the
	// configuration-file parser, so any file key is sweepable.
	gpus := make([]swiftsim.GPU, len(points))
	for i, v := range points {
		text := fmt.Sprintf("gpu.base = %s\n%s = %s\n", *gpuName, *key, v)
		g, err := config.Parse(strings.NewReader(text))
		if err != nil {
			return fmt.Errorf("sweep point %q: %w", v, err)
		}
		gpus[i] = g
	}

	fmt.Fprintf(stdout, "design-space exploration: %s over %v (%s, scale %g)\n\n",
		*key, points, cfg.Kind, *scale)
	fmt.Fprintf(stdout, "%-12s", "App")
	for _, v := range points {
		fmt.Fprintf(stdout, " %12s", v)
	}
	fmt.Fprintln(stdout)

	for _, name := range appNames {
		app, err := swiftsim.GenerateWorkload(name, *scale)
		if err != nil {
			return err
		}
		// All sweep points of one app run in parallel.
		jobs := make([]swiftsim.Job, len(gpus))
		for i, g := range gpus {
			jobs[i] = swiftsim.Job{App: app, GPU: g, Opts: cfg}
		}
		fmt.Fprintf(stdout, "%-12s", name)
		for _, out := range swiftsim.SimulateAll(jobs, 0) {
			if out.Err != nil {
				return out.Err
			}
			fmt.Fprintf(stdout, " %12d", out.Result.Cycles)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
