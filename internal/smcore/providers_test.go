package smcore

import (
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/metrics"
	"swiftsim/internal/trace"
)

// TestALUsLayout: ALUs builds one unit per class per sub-core, with the
// class's latency and lanes, except that "DP:0.5x" shares one DP unit per
// sub-core pair of one SM; an unknown class gets nil.
func TestALUsLayout(t *testing.T) {
	for _, half := range []bool{false, true} {
		cfg := config.RTX2080Ti().SM
		cfg.DPLanesHalf = half
		g := metrics.New()
		built := map[Unit][2]int{} // unit -> latency, lanes
		alus := ALUs(cfg, func(class trace.OpClass, lat, lanes int) Unit {
			u := testALU("alu."+class.String(), lat, cfg.IssueInterval(lanes), g)
			built[u] = [2]int{lat, lanes}
			return u
		})
		want := map[trace.OpClass][2]int{
			trace.OpInt: {cfg.IntLatency, cfg.IntLanes},
			trace.OpSP:  {cfg.SPLatency, cfg.SPLanes},
			trace.OpDP:  {cfg.DPLatency, cfg.DPLanes},
			trace.OpSFU: {cfg.SFULatency, cfg.SFULanes},
		}
		seen := map[Unit]bool{}
		dp := map[[2]int]Unit{} // (sm, sub) -> its DP unit
		for sm := 0; sm < 2; sm++ {
			for sub := 0; sub < cfg.SubCores; sub++ {
				for class, params := range want {
					u := alus(sm, sub, class)
					if built[u] != params {
						t.Fatalf("half=%v: SM%d sub %d %v: built with %v, want %v", half, sm, sub, class, built[u], params)
					}
					if class == trace.OpDP {
						dp[[2]int{sm, sub}] = u
					}
					if seen[u] && !(half && class == trace.OpDP && sub%2 == 1) {
						t.Errorf("half=%v: SM%d sub %d %v shares a unit", half, sm, sub, class)
					}
					seen[u] = true
				}
			}
		}
		for k, u := range dp {
			if pair := dp[[2]int{k[0], k[1] ^ 1}]; (pair == u) != half {
				t.Errorf("half=%v: SM%d sub %d shares its DP unit with its pair: %v", half, k[0], k[1], pair == u)
			}
		}
		if u := alus(0, 0, trace.OpLoadGlobal); u != nil {
			t.Errorf("a memory class got unit %v", u)
		}
	}
}
