package regress

import (
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/reuse"
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

// TestProfilerInclusion is Mattson's inclusion property as a direction
// oracle for the hit-rate profiler: under LRU at fixed sets, a cache with
// more ways holds everything the smaller one holds, so doubling the L1's
// ways never lowers phase one's L1 hit rate, over loads
// (Profile.DefaultReads) or over every access (Profile.Default), and
// doubling the L2's ways behind the same phase-one result never lowers the
// L1+L2 rate. It runs the 20 catalog apps at scale 0.1 on all three
// presets (-short: the first preset). A doubling that raised no rate
// anywhere would check nothing, so the test also wants each to raise one.
func TestProfilerInclusion(t *testing.T) {
	presets := config.PresetNames()
	if testing.Short() {
		presets = presets[:1]
	}
	var l1Rose, l2Rose bool
	for _, preset := range presets {
		gpu, ok := config.Preset(preset)
		if !ok {
			t.Fatalf("no preset %s", preset)
		}
		gpu.L1.Replacement, gpu.L2.Replacement = config.LRU, config.LRU
		wideL1, wideL2 := gpu, gpu
		wideL1.L1.Ways *= 2
		wideL2.L2.Ways *= 2
		for _, name := range workload.Names() {
			app, err := workload.Generate(name, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			one := reuse.FilterL1(app, reuse.L1GeometryOf(app, gpu, false))
			base := one.ReplayL2(reuse.L2LevelOf(gpu, false))
			l1 := reuse.ProfileApp(app, wideL1)
			l2 := one.ReplayL2(reuse.L2LevelOf(wideL2, false))
			for _, r := range []struct {
				of           string
				base, l1, l2 reuse.Rates
			}{
				{"load", base.DefaultReads, l1.DefaultReads, l2.DefaultReads},
				{"total", base.Default, l1.Default, l2.Default},
			} {
				if r.l1.L1 < r.base.L1 {
					t.Errorf("%s on %s: doubling the L1's ways lowered its %s hit rate from %g to %g", name, preset, r.of, r.base.L1, r.l1.L1)
				}
				if got, was := r.l2.L1+r.l2.L2, r.base.L1+r.base.L2; got < was {
					t.Errorf("%s on %s: doubling the L2's ways lowered the %s L1+L2 hit rate from %g to %g", name, preset, r.of, was, got)
				}
				l1Rose = l1Rose || r.l1.L1 > r.base.L1
				l2Rose = l2Rose || r.l2.L2 > r.base.L2
			}
		}
	}
	if !l1Rose || !l2Rose {
		t.Errorf("doubling the ways raised no L1 rate (%v) or no L2 rate (%v): the check does not bind", !l1Rose, !l2Rose)
	}
}
