package sim

import (
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/engine"
)

// moduleTicks runs app under opts and returns the engine's module Tick
// calls and ticked cycles.
func moduleTicks(t *testing.T, app string, scale float64, gpu config.GPU, opts Options) (ticks, cycles uint64) {
	t.Helper()
	ranOn = func(e *engine.Engine) { ticks, cycles = e.ModuleTicks(), e.TickedCycles() }
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
