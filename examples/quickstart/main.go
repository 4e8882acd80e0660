// Quickstart: generate a workload, simulate it with the three Swift-Sim
// configurations, and print the headline numbers.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"swiftsim"
)

func main() {
	// A mid-size stencil workload from the Rodinia suite.
	app, err := swiftsim.GenerateWorkload("HOTSPOT", 1.0)
	if err != nil {
		log.Fatal(err)
	}
	gpu := swiftsim.RTX2080Ti()
	fmt.Printf("simulating %s (%d instructions) on %s\n\n", app.Name, app.Insts(), gpu.Name)

	for _, simulator := range []swiftsim.Simulator{
		swiftsim.Detailed, swiftsim.SwiftSimBasic, swiftsim.SwiftSimMemory,
	} {
		res, err := swiftsim.Simulate(app, gpu, swiftsim.Config{Kind: simulator})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %8d cycles   wall %10s   (ticked %d, fast-forwarded %d)\n",
			res.Kind, res.Cycles, res.Wall.Round(1000), res.TickedCycles, res.SkippedCycles)
	}

	// The golden reference stands in for real-hardware measurements.
	hw, err := swiftsim.SimulateHardware(app, gpu)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-18s %8d cycles   (golden reference model)\n", "hardware", hw.Cycles)
}
