package sim

import (
	"testing"

	"swiftsim/internal/config"
)

// moduleTicks runs app under opts and returns the engine's module Tick
// calls and ticked cycles.
func moduleTicks(t *testing.T, app string, scale float64, gpu config.GPU, opts Options) (ticks, cycles uint64) {
	t.Helper()
	ranOn = func(a *gpuAssembly) { ticks, cycles = a.eng.ModuleTicks(), a.eng.TickedCycles() }
	defer func() { ranOn = nil }()
	if _, err := Run(mustApp(t, app, scale), gpu, opts); err != nil {
		t.Fatal(err)
	}
	return ticks, cycles
}

// TestWaitingModulesAreNotTicked: a cache whose requests all wait on fills
// or hit latencies leaves the tick set, so a ticked cycle costs the modules
// that can make progress, not every module holding the clock. Each ceiling
// sits about 25% above its measured count. Ticking every busy cache, as the
// engine did before its waiting class, reads 30.1 module ticks per ticked
// cycle here under either kind.
func TestWaitingModulesAreNotTicked(t *testing.T) {
	for _, row := range []struct {
		kind    Kind
		ceiling float64
	}{
		{Basic, 9.0},    // measured 7.23
		{Detailed, 9.1}, // measured 7.28
	} {
		ticks, cycles := moduleTicks(t, "BFS", 0.25, config.RTX2080Ti(), Options{Kind: row.kind})
		per := float64(ticks) / float64(cycles)
		t.Logf("%s: %d module ticks over %d ticked cycles, %.2f a cycle", row.kind, ticks, cycles, per)
		if per > row.ceiling {
			t.Errorf("%s: %.2f module ticks per ticked cycle, ceiling %v", row.kind, per, row.ceiling)
		}
	}
}

// TestIdleUnitsAreNotTicked: an SM ticks only the execution units that hold
// an instruction, so a tick costs the units in use, not every unit the SM
// has. Each ceiling sits about 25% above its measured count. Ticking every
// cycle-accurate unit, as the SM did before its busy-unit set, reads 18
// unit ticks per SM tick under Detailed (four collector-fronted pipelines
// per sub-core, a DP pipeline per sub-core pair, four LD/ST units) and 4
// under Basic (the LD/ST units).
func TestIdleUnitsAreNotTicked(t *testing.T) {
	for _, row := range []struct {
		kind    Kind
		ceiling float64
	}{
		{Basic, 1.16},   // measured 0.93
		{Detailed, 1.3}, // measured 1.04
	} {
		var smTicks, unitTicks uint64
		ranOn = func(a *gpuAssembly) {
			for _, sm := range a.sms {
				s, u := sm.UnitTicks()
				smTicks += s
				unitTicks += u
			}
		}
		_, err := Run(mustApp(t, "BFS", 0.25), config.RTX2080Ti(), Options{Kind: row.kind})
		ranOn = nil
		if err != nil {
			t.Fatal(err)
		}
		per := float64(unitTicks) / float64(smTicks)
		t.Logf("%s: %d unit ticks over %d SM ticks, %.2f a tick", row.kind, unitTicks, smTicks, per)
		if per > row.ceiling {
			t.Errorf("%s: %.2f unit ticks per SM tick, ceiling %v", row.kind, per, row.ceiling)
		}
	}
}
