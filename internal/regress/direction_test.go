package regress

import (
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/sim"
	"swiftsim/internal/workload"
)

// latencyLeaves are the configuration's latency fields: what a slower
// component of the simulated GPU is.
var latencyLeaves = []struct {
	name string
	of   func(g *config.GPU) *int
}{
	{"DRAM", func(g *config.GPU) *int { return &g.DRAMLatency }},
	{"DRAM row hit", func(g *config.GPU) *int { return &g.DRAMRowHitLatency }},
	{"L2 hit", func(g *config.GPU) *int { return &g.L2.HitLatency }},
	{"L1 hit", func(g *config.GPU) *int { return &g.L1.HitLatency }},
	{"NoC", func(g *config.GPU) *int { return &g.NoCLatency }},
	{"SP", func(g *config.GPU) *int { return &g.SM.SPLatency }},
	{"INT", func(g *config.GPU) *int { return &g.SM.IntLatency }},
	{"DP", func(g *config.GPU) *int { return &g.SM.DPLatency }},
	{"SFU", func(g *config.GPU) *int { return &g.SM.SFULatency }},
	{"shared memory", func(g *config.GPU) *int { return &g.SM.SharedMemLatency }},
}

// latencyOf returns the latency leaf named leaf of g.
func latencyOf(g *config.GPU, leaf string) *int {
	for _, l := range latencyLeaves {
		if l.name == leaf {
			return l.of(g)
		}
	}
	panic("no latency leaf " + leaf)
}

// TestMemoryLatencyDirection is a direction oracle for Swift-Sim-Memory:
// doubling any latency leaf of the configuration never lowers an app's
// cycles. Identity gates (goldens, digests) cannot tell a term of Eq. 1
// whose sign flipped from a recalibration; this can, and it still binds
// when the goldens are regenerated on purpose. It runs the 20 catalog apps
// at scale 0.1 on all three presets (-short: the first preset). Memory's
// L1s and memory system are analytical, so it has no timing anomaly to
// excuse; the kinds with cycle-accurate L1s do (longer latencies can
// desynchronise warps and cut bank conflicts) and are not checked here.
func TestMemoryLatencyDirection(t *testing.T) {
	presets := config.PresetNames()
	if testing.Short() {
		presets = presets[:1]
	}
	for _, preset := range presets {
		gpu, ok := config.Preset(preset)
		if !ok {
			t.Fatalf("no preset %s", preset)
		}
		for _, name := range workload.Names() {
			app, err := workload.Generate(name, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			cycles := func(g config.GPU, leaf string) (uint64, bool) {
				res, err := sim.Run(app, g, sim.Options{Kind: sim.Memory})
				if err != nil {
					t.Errorf("%s on %s, %s latency %d: %v", name, preset, leaf, *latencyOf(&g, leaf), err)
					return 0, false
				}
				return res.Cycles, true
			}
			base, ok := cycles(gpu, "DRAM")
			if !ok {
				continue
			}
			for _, leaf := range latencyLeaves {
				slower := gpu
				p := leaf.of(&slower)
				if *p <= 0 {
					t.Fatalf("%s: %s latency %d: doubling it is no change", preset, leaf.name, *p)
				}
				*p *= 2
				if got, ok := cycles(slower, leaf.name); ok && got < base {
					t.Errorf("%s on %s: doubling the %s latency took %d cycles to %d", name, preset, leaf.name, base, got)
				}
			}
		}
	}
}
