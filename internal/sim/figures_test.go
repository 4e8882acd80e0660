package sim_test

import (
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/experiments"
	"swiftsim/internal/sim"
)

// TestFigure5MemoryPassesProfileCold: Figure 5's single-thread and parallel
// Memory passes each start with a cold profile memo, so each profiles every
// app exactly once, whether the figure runs alone or after Figure 4 has
// profiled the same apps on the same GPU. A pass profiles an app at most
// once (the memo single-flights it), so the figure's total of twice the
// app count means once per pass; a warm pass would profile none.
func TestFigure5MemoryPassesProfileCold(t *testing.T) {
	gpu := config.RTX2080Ti()
	gpu.NumSMs = 8
	gpu.MemPartitions = 4
	p := experiments.Params{Apps: []string{"BFS", "SM"}, Scale: 0.1, GPU: gpu, Threads: 2}
	for _, afterFig4 := range []bool{false, true} {
		if afterFig4 {
			if _, err := experiments.Figure4(p); err != nil {
				t.Fatal(err)
			}
		}
		before := sim.PhaseTwoComputes()
		if _, err := experiments.Figure5(p); err != nil {
			t.Fatal(err)
		}
		if got, want := sim.PhaseTwoComputes()-before, 2*len(p.Apps); got != want {
			t.Errorf("after Figure 4 %v: Figure 5's two Memory passes computed %d profiles, want %d (each app once a pass)",
				afterFig4, got, want)
		}
	}
}
