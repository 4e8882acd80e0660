// Warp-scheduler exploration — the paper's motivating scenario (§III-D):
// "Assuming we need to explore a new warp scheduling algorithm, Warp
// Scheduler & Dispatch needs cycle-accurate simulation ... For other
// modules, architects can choose appropriate modeling methods as needed."
//
// The Warp Scheduler & Dispatch module is cycle-accurate in every
// Swift-Sim configuration, so scheduling policies can be compared with
// Swift-Sim-Memory at a fraction of the detailed simulator's cost. This
// example:
//
//  1. sweeps the three built-in policies (GTO, LRR, oldest-first);
//  2. plugs in two *custom* policies through the WarpPicker extension
//     point — the library-provided mem-first policy and a bespoke
//     "criticality-first" policy defined right here;
//  3. cross-checks a ranking against the detailed simulator.
//
// Run with: go run ./examples/warpsched
package main

import (
	"fmt"
	"log"

	"swiftsim"
	"swiftsim/internal/config"
)

// critFirst is a user-defined scheduling policy: prioritize the warp with
// the most remaining instructions (the "critical" warp), so long-running
// warps are not starved at kernel tails.
type critFirst struct{}

func (critFirst) Pick(cycle uint64, warps []*swiftsim.Warp, tried func(*swiftsim.Warp) bool) int {
	best, bestRemain := -1, -1
	for i, w := range warps {
		if !swiftsim.PickerIssuable(w) || tried(w) {
			continue
		}
		if r := swiftsim.PickerRemainingInsts(w); r > bestRemain {
			best, bestRemain = i, r
		}
	}
	return best
}

func (critFirst) Issued(int, *swiftsim.Warp) {}

func simulate(app *swiftsim.App, gpu swiftsim.GPU, cfg swiftsim.Config) uint64 {
	res, err := swiftsim.Simulate(app, gpu, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res.Cycles
}

func main() {
	apps := []string{"BFS", "GEMM", "SM", "SRAD", "LSTM"}

	type policy struct {
		name string
		cfg  func() swiftsim.Config
	}
	policies := []policy{
		{"GTO", nil}, {"LRR", nil}, {"OLDEST", nil},
		{"mem-first", func() swiftsim.Config {
			return swiftsim.Config{
				Kind:      swiftsim.SwiftSimMemory,
				Scheduler: func(_, _ int) swiftsim.WarpPicker { return swiftsim.NewMemFirstPicker() },
			}
		}},
		{"crit-first", func() swiftsim.Config {
			return swiftsim.Config{
				Kind:      swiftsim.SwiftSimMemory,
				Scheduler: func(_, _ int) swiftsim.WarpPicker { return critFirst{} },
			}
		}},
	}
	builtinPolicies := map[string]config.SchedPolicy{
		"GTO": config.GTO, "LRR": config.LRR, "OLDEST": config.OldestFirst,
	}

	fmt.Println("warp-scheduling exploration with Swift-Sim-Memory")
	fmt.Printf("%-10s", "App")
	for _, p := range policies {
		fmt.Printf(" %11s", p.name)
	}
	fmt.Println()

	for _, name := range apps {
		app, err := swiftsim.GenerateWorkload(name, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s", name)
		for _, p := range policies {
			gpu := swiftsim.RTX2080Ti()
			var cfg swiftsim.Config
			if bp, ok := builtinPolicies[p.name]; ok {
				gpu.SM.Scheduler = bp
				cfg = swiftsim.Config{Kind: swiftsim.SwiftSimMemory}
			} else {
				cfg = p.cfg()
			}
			fmt.Printf(" %11d", simulate(app, gpu, cfg))
		}
		fmt.Println()
	}

	// Cross-check the custom policies against the detailed simulator on
	// one application: the hybrid simulator must preserve the ranking.
	fmt.Println("\ncross-check on SM with the detailed simulator:")
	app, _ := swiftsim.GenerateWorkload("SM", 0.5)
	for _, p := range policies {
		gpu := swiftsim.RTX2080Ti()
		var cfg swiftsim.Config
		if bp, ok := builtinPolicies[p.name]; ok {
			gpu.SM.Scheduler = bp
			cfg = swiftsim.Config{Kind: swiftsim.Detailed}
		} else {
			cfg = p.cfg()
			cfg.Kind = swiftsim.Detailed
		}
		fmt.Printf("  %-11s %10d cycles (detailed)\n", p.name, simulate(app, gpu, cfg))
	}
}
