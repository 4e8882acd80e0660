// Cache replacement-policy design-space exploration.
//
// The paper motivates hybrid simulation by noting that purely analytical
// cache models (reuse-distance theory) are locked to LRU, "which makes it
// difficult to simulate other replacement policies such as FIFO or
// Random". Swift-Sim's cycle-accurate cache module supports all three, and
// Swift-Sim-Basic keeps the memory hierarchy cycle-accurate — so
// replacement policies stay explorable while the ALUs are analytical.
//
// Part 1 sweeps policies and capacities with a hand-built cache-thrash
// kernel (each warp cyclically re-scans a buffer slightly larger than its
// L1 share — the pattern where LRU pathologically misses and Random keeps
// part of the working set). Part 2 sweeps bundled applications.
//
// Run with: go run ./examples/cachepolicy
package main

import (
	"fmt"
	"log"

	"swiftsim"
	"swiftsim/internal/config"
	"swiftsim/internal/trace"
)

// thrashApp builds a kernel whose single resident warp per SM cyclically
// scans bufBytes of memory three times with perfectly coalesced loads.
func thrashApp(bufBytes int) *swiftsim.App {
	const passes = 3
	lines := bufBytes / 128
	var wt trace.WarpTrace
	pc := uint64(0)
	for p := 0; p < passes; p++ {
		pc = 0 // all passes share static PCs, like a real loop
		for l := 0; l < lines; l++ {
			addrs := make([]uint64, 32)
			for lane := range addrs {
				addrs[lane] = uint64(0x1000_0000 + l*128 + lane*4)
			}
			// Every instruction but the EXIT is a load, so its ordinal among
			// the kernel's memory instructions is its position.
			wt = append(wt, trace.Inst{
				PC: pc, Op: trace.OpLoadGlobal, Dst: trace.Reg(l%30 + 1),
				ActiveMask: 0xffffffff, MemIndex: uint32(len(wt)), Addrs: addrs,
			})
			pc += 8
		}
	}
	wt = append(wt, trace.Inst{PC: pc, Op: trace.OpExit, ActiveMask: 0xffffffff})
	k := &trace.Kernel{
		Name:          "thrash",
		Grid:          trace.Dim3{X: 1, Y: 1, Z: 1},
		Block:         trace.Dim3{X: 32, Y: 1, Z: 1},
		RegsPerThread: 32,
		Blocks:        []trace.BlockTrace{{Warps: []trace.WarpTrace{wt}}},
	}
	return &swiftsim.App{Name: "THRASH", Suite: "custom", Kernels: []*trace.Kernel{k}}
}

func simulate(app *swiftsim.App, gpu swiftsim.GPU) *swiftsim.Result {
	res, err := swiftsim.Simulate(app, gpu, swiftsim.Config{Kind: swiftsim.SwiftSimBasic})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	policies := []config.Replacement{config.LRU, config.FIFO, config.Random}

	fmt.Println("replacement-policy sweep on a 96 KiB cyclic re-scan (64 KiB L1):")
	fmt.Printf("%-8s %10s %14s\n", "policy", "cycles", "L1 miss rate")
	app := thrashApp(96 << 10)
	for _, pol := range policies {
		gpu := swiftsim.RTX2080Ti()
		gpu.L1.Replacement = pol
		res := simulate(app, gpu)
		mr := float64(res.Metrics["l1.miss"]) / float64(res.Metrics["l1.miss"]+res.Metrics["l1.hit"])
		fmt.Printf("%-8s %10d %13.1f%%\n", pol, res.Cycles, 100*mr)
	}

	fmt.Println("\nL1 capacity sweep (LRU, 96 KiB working set):")
	for _, sets := range []int{32, 64, 128, 256} {
		gpu := swiftsim.RTX2080Ti()
		gpu.L1.Sets = sets
		res := simulate(app, gpu)
		mr := float64(res.Metrics["l1.miss"]) / float64(res.Metrics["l1.miss"]+res.Metrics["l1.hit"])
		fmt.Printf("  %4d KiB L1: %8d cycles, miss rate %5.1f%%\n",
			gpu.L1.SizeBytes()/1024, res.Cycles, 100*mr)
	}

	fmt.Println("\nbundled applications (policy sensitivity varies with reuse):")
	fmt.Printf("%-12s", "App")
	for _, p := range policies {
		fmt.Printf(" %10s", p)
	}
	fmt.Println()
	for _, name := range []string{"SRAD", "ATAX", "GAUSSIAN"} {
		bApp, err := swiftsim.GenerateWorkload(name, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s", name)
		for _, pol := range policies {
			gpu := swiftsim.RTX2080Ti()
			gpu.L1.Replacement = pol
			fmt.Printf(" %10d", simulate(bApp, gpu).Cycles)
		}
		fmt.Println()
	}
}
