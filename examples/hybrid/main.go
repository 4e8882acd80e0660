// Hybrid-modeling tour: what swapping modules between cycle-accurate and
// analytical modeling does to accuracy and speed, plus the parallel
// simulation mode of §IV-B2.
//
// Run with: go run ./examples/hybrid
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"swiftsim"
)

func main() {
	gpu := swiftsim.RTX2080Ti()
	apps := []string{"SM", "GRU", "GEMM", "BFS"}

	// 1. Accuracy/speed per configuration, against the golden reference.
	fmt.Println("configuration comparison (golden reference = substituted hardware):")
	fmt.Printf("%-8s %10s | %22s | %22s | %22s\n", "App", "hardware",
		"Detailed", "Swift-Sim-Basic", "Swift-Sim-Memory")
	for _, name := range apps {
		app, err := swiftsim.GenerateWorkload(name, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		hw, err := swiftsim.SimulateHardware(app, gpu)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %10d |", name, hw.Cycles)
		for _, s := range []swiftsim.Simulator{swiftsim.Detailed, swiftsim.SwiftSimBasic, swiftsim.SwiftSimMemory} {
			res, err := swiftsim.Simulate(app, gpu, swiftsim.Config{Kind: s})
			if err != nil {
				log.Fatal(err)
			}
			errPct := 100 * abs(float64(res.Cycles)-float64(hw.Cycles)) / float64(hw.Cycles)
			fmt.Printf(" %9d (%5.1f%%) |", res.Cycles, errPct)
		}
		fmt.Println()
	}

	// 2. The hybrid inventory: which modules are analytical.
	app, _ := swiftsim.GenerateWorkload("BFS", 0.2)
	res, err := swiftsim.Simulate(app, gpu, swiftsim.Config{Kind: swiftsim.SwiftSimMemory})
	if err != nil {
		log.Fatal(err)
	}
	ca, an := 0, 0
	for _, m := range res.Inventory {
		if m.Kind.String() == "analytical" {
			an++
		} else {
			ca++
		}
	}
	fmt.Printf("\nSwift-Sim-Memory module inventory: %d cycle-accurate, %d analytical\n", ca, an)

	// 3. Hit-rate sources for Eq. 1.
	fmt.Println("\nEq. 1 hit-rate source comparison on GEMM:")
	gemm, _ := swiftsim.GenerateWorkload("GEMM", 0.5)
	for _, src := range []struct {
		name string
		s    swiftsim.HitRateSource
	}{{"functional caches", swiftsim.FunctionalCaches}, {"reuse distance", swiftsim.ReuseDistance}} {
		res, err := swiftsim.Simulate(gemm, gpu, swiftsim.Config{
			Kind: swiftsim.SwiftSimMemory, HitRates: src.s,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s %8d cycles\n", src.name, res.Cycles)
	}

	// 4. Parallel simulation across applications (§IV-B2).
	// Longer-running Basic jobs amortize scheduling overhead, so the
	// worker pool's scaling is visible even on small hosts.
	jobs := make([]swiftsim.Job, 0, len(apps))
	for _, name := range apps {
		a, _ := swiftsim.GenerateWorkload(name, 0.5)
		jobs = append(jobs, swiftsim.Job{App: a, GPU: gpu,
			Cfg: swiftsim.Config{Kind: swiftsim.SwiftSimBasic}})
	}
	t1 := time.Now()
	swiftsim.SimulateAll(jobs, 1)
	seq := time.Since(t1)
	tN := time.Now()
	swiftsim.SimulateAll(jobs, runtime.NumCPU())
	par := time.Since(tN)
	fmt.Printf("\nparallel simulation: %d apps sequential %s, %d workers %s (%.1fx)\n",
		len(jobs), seq.Round(time.Millisecond), runtime.NumCPU(),
		par.Round(time.Millisecond), seq.Seconds()/par.Seconds())
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
