package swiftsim_test

import (
	"fmt"
	"sort"

	"swiftsim"
)

// Simulating a bundled workload with the hybrid Swift-Sim-Memory
// configuration. Cycle counts are deterministic, so the output is stable.
func ExampleSimulate() {
	gpu := swiftsim.RTX2080Ti()
	gpu.NumSMs = 4 // scaled down so the example runs instantly
	gpu.MemPartitions = 2
	app, _ := swiftsim.GenerateWorkload("MVT", 0.1)
	res, _ := swiftsim.Simulate(app, gpu, swiftsim.Config{
		Kind: swiftsim.SwiftSimMemory,
	})
	fmt.Println(res.App, res.Kind, res.Instructions, "instructions")
	// Output: MVT Swift-Sim-Memory 880 instructions
}

// Listing the bundled benchmark suites.
func ExampleWorkloadCatalog() {
	suites := map[string]int{}
	for _, w := range swiftsim.WorkloadCatalog() {
		suites[w.Suite]++
	}
	names := make([]string, 0, len(suites))
	for s := range suites {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		fmt.Println(s, suites[s])
	}
	// Output:
	// Mars 2
	// Pannotia 2
	// Polybench 6
	// Rodinia 7
	// Tango 3
}

// Exploring a custom warp-scheduling policy — the paper's motivating
// scenario — by plugging a WarpPicker into any simulator configuration.
func ExampleConfig_customScheduler() {
	gpu := swiftsim.RTX2080Ti()
	gpu.NumSMs = 4
	gpu.MemPartitions = 2
	app, _ := swiftsim.GenerateWorkload("BFS", 0.1)
	res, _ := swiftsim.Simulate(app, gpu, swiftsim.Config{
		Kind: swiftsim.SwiftSimMemory,
		Scheduler: func(smID, subCore int) swiftsim.WarpPicker {
			return swiftsim.NewMemFirstPicker()
		},
	})
	fmt.Println(res.Instructions == uint64(app.Insts()))
	// Output: true
}
