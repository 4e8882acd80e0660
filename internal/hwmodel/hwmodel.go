// Package hwmodel provides the golden "real hardware" reference that the
// repository validates simulators against, substituting for the paper's
// Nsight-Compute measurements on physical RTX GPUs (which need hardware we
// do not have).
//
// The golden model is the Detailed cycle-accurate simulator augmented with
// effects that none of the three performance simulators model — the same
// mechanism that produces prediction error in real validation studies. Each
// lives here, not in the simulator's options:
//
//   - undisclosed timing: every latency parameter is scaled by a factor
//     representing the gap between public configuration files and actual
//     silicon (the paper: "Due to unique disclosed hardware parameters in
//     different GPU architectures, the error of the GPU performance
//     simulator varies");
//   - kernel launch overhead: driver + hardware dispatch cost per kernel;
//   - instruction-cache warm-up: the first wave of each kernel stalls on
//     i-cache cold misses;
//   - address-translation misses: each distinct 64 KiB page touched costs
//     a TLB walk, partially hidden by thread-level parallelism;
//   - DRAM refresh: a fixed fraction of cycles is stolen by refresh.
//
// Every effect is deterministic in the (application, GPU) pair, so error
// numbers are reproducible.
package hwmodel

import (
	"swiftsim/internal/config"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
)

// Params are the golden model's extra-effect coefficients. Defaults are
// chosen so simulator-vs-hardware errors land in the paper's observed
// range (mean ≈ 20% for the detailed simulator).
type Params struct {
	// LatencyScale multiplies the GPU's latency parameters (silicon vs
	// config-file gap); 0 leaves them as configured.
	LatencyScale float64
	// KernelLaunchCycles is the per-kernel dispatch overhead.
	KernelLaunchCycles uint64
	// ICacheMissCycles is the stall per static instruction during each
	// kernel's first wave.
	ICacheMissCycles float64
	// TLBMissCycles is the cost of one page walk; PageBytes the page
	// granularity.
	TLBMissCycles float64
	PageBytes     uint64
	// RefreshFraction is the fraction of cycles stolen by DRAM refresh.
	RefreshFraction float64
}

// DefaultParams returns the calibrated golden-model coefficients.
func DefaultParams() Params {
	return Params{
		LatencyScale:       1.12,
		KernelLaunchCycles: 300,
		ICacheMissCycles:   6,
		TLBMissCycles:      110,
		PageBytes:          64 << 10,
		RefreshFraction:    0.008,
	}
}

// Run produces the golden "hardware" cycle count for app on gpu: Detailed on
// gpu with its latencies scaled, plus the launch cost of every kernel and the
// effects below.
func Run(app *trace.App, gpu config.GPU, p Params) (*sim.Result, error) {
	if err := gpu.Validate(); err != nil {
		return nil, err
	}
	res, err := sim.Run(app, scaleLatencies(gpu, p.LatencyScale), sim.Options{Kind: sim.Detailed})
	if err != nil {
		return nil, err
	}
	res.Cycles += p.KernelLaunchCycles * uint64(len(app.Kernels))
	res.Cycles += icacheWarmup(app, p)
	// TLB walks overlap heavily with execution on real hardware; the
	// visible stall component is capped at a fraction of run time.
	tlb := tlbCost(app, gpu, p)
	if lim := res.Cycles / 8; tlb > lim {
		tlb = lim
	}
	res.Cycles += tlb
	res.Cycles += uint64(float64(res.Cycles) * p.RefreshFraction)
	res.Metrics["gpu.cycles"] = res.Cycles
	res.GPUName = gpu.Name + "-hw"
	return res, nil
}

// scaleLatencies returns gpu with its unit, cache, DRAM and interconnect
// latencies multiplied by f, each at least one cycle; a zero f leaves gpu
// as it is. The DRAM row-hit latency keeps its configured value.
func scaleLatencies(gpu config.GPU, f float64) config.GPU {
	if f <= 0 {
		return gpu
	}
	for _, l := range []*int{
		&gpu.SM.IntLatency, &gpu.SM.SPLatency, &gpu.SM.DPLatency, &gpu.SM.SFULatency, &gpu.SM.SharedMemLatency,
		&gpu.L1.HitLatency, &gpu.L2.HitLatency, &gpu.DRAMLatency, &gpu.NoCLatency,
	} {
		*l = max(int(float64(*l)*f), 1)
	}
	return gpu
}

// icacheWarmup estimates first-wave instruction-fetch stalls: each kernel
// pays ICacheMissCycles per static instruction of its warp program once.
func icacheWarmup(app *trace.App, p Params) uint64 {
	var total float64
	for _, k := range app.Kernels {
		if len(k.Blocks) == 0 || len(k.Blocks[0].Warps) == 0 {
			continue
		}
		staticInsts := len(k.Blocks[0].Warps[0])
		total += p.ICacheMissCycles * float64(staticInsts)
	}
	return uint64(total)
}

// tlbCost estimates address-translation overhead: one walk per distinct
// page, divided by the machine parallelism that hides walks.
func tlbCost(app *trace.App, gpu config.GPU, p Params) uint64 {
	if p.PageBytes == 0 || p.TLBMissCycles == 0 {
		return 0
	}
	pages := make(map[uint64]struct{})
	var lanes [trace.WarpSize]uint64
	for _, k := range app.Kernels {
		for bi := range k.Blocks {
			for _, w := range k.Blocks[bi].Warps {
				for i := range w {
					if !w[i].Op.IsGlobalMem() {
						continue
					}
					for _, a := range w[i].Lanes(&lanes) {
						pages[a/p.PageBytes] = struct{}{}
					}
				}
			}
		}
	}
	parallelism := float64(gpu.NumSMs)
	return uint64(float64(len(pages)) * p.TLBMissCycles / parallelism)
}
