// Package cliutil holds small helpers shared by the command-line front
// ends (cmd/sweep, cmd/explore, cmd/swiftsimd) and, for the execution-mode
// rules, by the sweep service behind them.
package cliutil

import (
	"fmt"
	"strings"
)

// SplitList splits a comma-separated flag value into its elements,
// trimming surrounding whitespace and dropping empties. A bare
// strings.Split would turn "BFS, GEMM," into ["BFS", " GEMM", ""] — the
// padded name misses the workload catalog and the trailing empty string
// becomes a phantom job — so every list-valued flag goes through here.
// Empty or all-whitespace input yields nil.
func SplitList(s string) []string {
	var out []string
	for _, el := range strings.Split(s, ",") {
		if el = strings.TrimSpace(el); el != "" {
			out = append(out, el)
		}
	}
	return out
}

// Modes is the execution-mode flag set every front end exposes: the
// engine-parallelism dial (-engine-threads), the relaxed-sync dial
// (-epoch-cycles) and the sampled-execution dial (-sample, -sample-frac,
// -sample-stride). ValidateModes checks them jointly.
type Modes struct {
	EngineThreads int
	EpochCycles   int
	Sample        bool
	// SampleFraction is the -sample-frac value; 0 means the simulator's
	// default. Only meaningful (and only validated) when Sample is set.
	SampleFraction float64
	// SampleStride is the -sample-stride value; 0 means the simulator's
	// default, 1 disables launch replay. Only meaningful (and only
	// validated) when Sample is set.
	SampleStride int
}

// ValidateModes checks an execution-mode flag combination up front, so the
// front ends fail with one actionable message instead of the simulator's
// deeper error (or a silently ignored flag):
//
//   - Negative thread and epoch counts are rejected (0 means the
//     default everywhere, so a negative value has no reading).
//   - Relaxed-sync epochs only exist in a parallel engine assembly:
//     epochCycles > 1 on a serial run (engineThreads <= 1) would be
//     silently ignored, so the contradiction is rejected. 0 or 1 (exact
//     mode) pass with any thread count.
//   - Sampling tuning flags without -sample would likewise be dead
//     settings; a fraction or stride given while sampling is off is a
//     contradiction, and an enabled fraction must lie in [0,1) with a
//     non-negative stride.
func ValidateModes(m Modes) error {
	if m.EngineThreads < 0 {
		return fmt.Errorf("-engine-threads must be >= 0, got %d", m.EngineThreads)
	}
	if m.EpochCycles < 0 {
		return fmt.Errorf("-epoch-cycles must be >= 0, got %d", m.EpochCycles)
	}
	if m.EpochCycles > 1 && m.EngineThreads <= 1 {
		return fmt.Errorf("-epoch-cycles %d needs a parallel engine: pass -engine-threads > 1 (or drop -epoch-cycles for the exact serial run)", m.EpochCycles)
	}
	if !m.Sample {
		if m.SampleFraction != 0 {
			return fmt.Errorf("-sample-frac %v has no effect without -sample", m.SampleFraction)
		}
		if m.SampleStride != 0 {
			return fmt.Errorf("-sample-stride %d has no effect without -sample", m.SampleStride)
		}
		return nil
	}
	if m.SampleFraction < 0 || m.SampleFraction >= 1 {
		return fmt.Errorf("-sample-frac must be in (0,1) (0 = simulator default), got %v", m.SampleFraction)
	}
	if m.SampleStride < 0 {
		return fmt.Errorf("-sample-stride must be >= 0 (0 = simulator default, 1 = no replay), got %d", m.SampleStride)
	}
	return nil
}
