// Package cliutil holds what the command-line front ends (cmd/swiftsim,
// cmd/sweep, cmd/explore, cmd/swiftsimd) share: list-valued flag parsing
// and the one registration of the execution-mode flags.
package cliutil

import (
	"flag"
	"fmt"
	"strings"

	"swiftsim/internal/sim"
)

// SplitList splits a comma-separated flag value into its elements,
// trimming surrounding whitespace and dropping empties. A bare
// strings.Split would turn "BFS, GEMM," into ["BFS", " GEMM", ""] — the
// padded name misses the workload catalog and the trailing empty string
// becomes a phantom job — so every list-valued flag goes through here.
// Empty or all-whitespace input yields nil.
func SplitList(s string) []string {
	var out []string
	for _, el := range strings.Split(s, ",") {
		if el = strings.TrimSpace(el); el != "" {
			out = append(out, el)
		}
	}
	return out
}

// RunFlags registers on fs the execution-mode flags every front end
// shares — the relaxed-sync dial (-epoch-cycles) and the sampled-execution
// dials (-sample, -sample-frac, -sample-stride) — and returns the function
// to call once fs is parsed: it yields the flags as sim.Options, checked by
// the one validator (sim.Options.Validate) with the values named by their
// flags.
// swiftsim and explore run the result; sweep and swiftsimd hold it as the
// default their jobs are overlaid on.
func RunFlags(fs *flag.FlagSet) func() (sim.Options, error) {
	var o sim.Options
	fs.IntVar(&o.EpochCycles, "epoch-cycles", 1, "relaxed-sync epoch length (1 = exact; >1 lets the SMs run that many cycles ahead of the shared memory system, with bounded cycle drift)")
	fs.BoolVar(&o.Sampling.Enabled, "sample", false, "sampled execution: replay repeated kernel launches and simulate a representative block subset per launch (approximate)")
	fs.Float64Var(&o.Sampling.BlockFraction, "sample-frac", 0, "with -sample: fraction of post-first-wave blocks to simulate in (0,1); 0 = default")
	fs.IntVar(&o.Sampling.ReplayStride, "sample-stride", 0, "with -sample: re-simulate every Nth repeated launch (0 = default, 1 = no replay)")
	return func() (sim.Options, error) {
		if err := o.Validate(); err != nil {
			return o, fmt.Errorf("-epoch-cycles %d, -sample=%t, -sample-frac %g, -sample-stride %d: %w",
				o.EpochCycles, o.Sampling.Enabled, o.Sampling.BlockFraction, o.Sampling.ReplayStride, err)
		}
		return o, nil
	}
}
