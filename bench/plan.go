package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"swiftsim/internal/sim"
	"swiftsim/internal/workload"
)

// baseScale is the trace scale every workload starts from. The issue's
// sizing probe was taken at 1.0 (Detailed 3.1 s a pass); the driver's
// run budget caps lower, so the scale was halved uniformly rather than
// dropping below five passes a run.
//
// -seed does not touch the scale. The generators round block counts, so
// a draw from {1.00 .. 1.20} x scale changed the instruction count by up
// to 20%, warm_ms with it, cycle_err_pct by 1% of itself and
// allocs_per_kinst by 3%: more than those metrics' bounds. With the scale
// fixed, the seed shuffles the job order (and the application order of the
// sweep spec) and draws the rigs' address streams, and cycle_err_pct, the
// simulated counts and result_digest are the same on every seed.
const baseScale = 0.5

// shardedApps are the five applications of basic_sharded; warmApps is the
// subset the simulator workloads re-run in-process for warm_ms.
var (
	shardedApps = []string{"BFS", "NW", "GEMM", "SM", "GRU"}
	warmApps    = []string{"NW", "GEMM", "SM", "GRU"}
)

const theGPU = "RTX2080Ti"

// jobSpec is one simulation job of a simulator workload.
type jobSpec struct {
	App     string
	GPU     string
	Kind    sim.Kind
	Threads int
	Epoch   int
}

// Key names the job in records, digests and span names. For a serial job
// it equals the key parseCanonical derives from the job's canonical block.
func (j jobSpec) Key() string {
	k := j.App + "/" + j.GPU + "/" + j.Kind.String()
	if j.Threads > 1 {
		k += fmt.Sprintf("/t%d/k%d", j.Threads, j.Epoch)
	}
	return k
}

func (j jobSpec) options() sim.Options {
	return sim.Options{Kind: j.Kind, EngineThreads: j.Threads, EpochCycles: j.Epoch}
}

// plan is everything a pass needs, a pure function of (workload, seed,
// base scale). The parent builds it once and hands it to every child.
type plan struct {
	Workload string
	Scale    float64
	// Jobs are the timed jobs of a simulator workload in run order; Warm
	// indexes the ones re-run afterwards with the in-process memos warm.
	Jobs []jobSpec
	Warm []int
	// Apps is the seeded application order of a service workload's spec.
	Apps []string
	// WarmResubmits is how many times a service workload resubmits the
	// cached spec.
	WarmResubmits int
}

func (p plan) service() bool { return len(p.Apps) > 0 }

func newPlan(name string, seed uint64, base float64) (plan, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5317f7))
	p := plan{Workload: name, Scale: base}
	apps := workload.Names()
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })

	add := func(app, gpu string, kind sim.Kind, threads, epoch int) {
		p.Jobs = append(p.Jobs, jobSpec{App: app, GPU: gpu, Kind: kind, Threads: threads, Epoch: epoch})
	}
	warm := warmApps
	switch name {
	case "detailed_serial", "basic_serial":
		kind := sim.Detailed
		if name == "basic_serial" {
			kind = sim.Basic
		}
		for _, a := range apps {
			add(a, theGPU, kind, 0, 0)
		}
	case "basic_sharded":
		for _, a := range apps {
			if slices.Contains(shardedApps, a) {
				add(a, theGPU, sim.Basic, 2, 1)
				add(a, theGPU, sim.Basic, 2, 8)
			}
		}
	case "memory_corpus":
		// GPUs outermost, as cmd/sweep and the golden corpus run them.
		for _, g := range []string{theGPU, "RTX3060", "RTX3090"} {
			for _, a := range apps {
				add(a, g, sim.Memory, 0, 0)
			}
		}
		warm = workload.Names()
	case "service_local", "service_remote":
		p.Apps = apps
		p.WarmResubmits = 400
		return p, nil
	default:
		return plan{}, fmt.Errorf("unknown workload %q", name)
	}
	for i, j := range p.Jobs {
		// Of a sharded pair only the cheaper relaxed-epoch job is re-run.
		if j.GPU == theGPU && slices.Contains(warm, j.App) && !(j.Threads > 1 && j.Epoch <= 1) {
			p.Warm = append(p.Warm, i)
		}
	}
	return p, nil
}
