package analytic

import "sort"

// ExtrapolateBlocks estimates the cycles the blocks *not* simulated by a
// sampled launch would have added, from the measured (launch, end) cycle
// pairs of the sampled blocks — the block-level analogue of Eq. 1's
// expectation model: instead of evaluating every block cycle by cycle, the
// unsampled remainder is charged its expected cost.
//
// The sample's tail blocks run as contiguous windows at full occupancy
// with their grid neighbors (smcore.SelectBlockSample), so their
// measurements embed the steady-state hit rates, neighbor locality, and
// contention delays the unsimulated waves would see. Two per-block cost
// estimators cover the two steady-state regimes:
//
//   - Occupancy floor: mean block duration / waveCap, the per-block cost
//     when waveCap blocks run in lockstep. Exact for compute-bound waves,
//     which finish in step; an underestimate when a saturated memory
//     system stretches wall time beyond what resident blocks account for.
//   - Saturated throughput: completions that happen no later than the last
//     sampled launch occur while blocks are still pending (every such
//     completion backfills one), so their mean spacing — span over
//     count−1 — is the machine's saturated drain rate. Completions after
//     the last launch are rundown — occupancy decays and survivors speed
//     up — and are excluded.
//
// Which to trust is decided by the shape of the saturated completions:
// queue-drain-dominated launches complete in bursts (a memory-system
// convoy drains, a gap follows), so a max consecutive gap well above the
// mean gap selects the throughput estimate; evenly spaced completions mean
// lockstep execution, where the spacing of the few saturated samples only
// echoes the first wave's cold transient and the floor is the faithful
// price. Sums, extrema, and the sorted gap scan are order-independent,
// keeping the result deterministic.
//
// Returns 0 when nothing was left unsimulated or nothing was measured.
// Rounding is half-up, matching the wave extrapolation of legacy prefix
// sampling (truncation systematically under-predicts).
func ExtrapolateBlocks(launch, end []uint64, waveCap, total, simulated int) uint64 {
	if total <= simulated || len(launch) == 0 || len(launch) != len(end) {
		return 0
	}
	if waveCap < 1 {
		waveCap = 1
	}
	var sum, lastLaunch uint64
	for i, l := range launch {
		sum += end[i] - l
		if l > lastLaunch {
			lastLaunch = l
		}
	}
	perBlock := float64(sum) / float64(len(launch)) / float64(waveCap)
	sat := make([]uint64, 0, len(end))
	for _, e := range end {
		if e <= lastLaunch {
			sat = append(sat, e)
		}
	}
	if len(sat) > 2 {
		sort.Slice(sat, func(i, j int) bool { return sat[i] < sat[j] })
		meanGap := float64(sat[len(sat)-1]-sat[0]) / float64(len(sat)-1)
		var maxGap uint64
		for i := 1; i < len(sat); i++ {
			if g := sat[i] - sat[i-1]; g > maxGap {
				maxGap = g
			}
		}
		if float64(maxGap) > 2*meanGap && meanGap > perBlock {
			perBlock = meanGap
		}
	}
	return uint64(float64(total-simulated)*perBlock + 0.5)
}
