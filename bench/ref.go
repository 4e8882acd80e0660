package main

import (
	"fmt"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/hwmodel"
	"swiftsim/internal/regress"
	"swiftsim/internal/sim"
	"swiftsim/internal/workload"
)

// refConfig asks the reference child for what a run compares its passes
// against. It runs once per run, in a process of its own, and none of its
// time is part of any metric but hwmodel's own.
type refConfig struct {
	Plan plan
	// HW computes the golden-model cycles of every (app, GPU) cell, for
	// cycle_err_pct.
	HW bool
}

// refRecord is the reference child's output.
type refRecord struct {
	// HWCycles maps "app/gpu" to hwmodel.Run's cycles under DefaultParams.
	// The repository holds no real-hardware measurements: this golden
	// model is the only reference there is.
	HWCycles map[string]uint64 `json:"hw_cycles,omitempty"`
	HWNS     int64             `json:"hw_ns,omitempty"`
	// Digests maps a job key to the digest of the canonical bytes an
	// independent path produces for it: a direct serial sim.Run, against
	// which service results and exact-mode sharded results are checked.
	Digests map[string]string `json:"digests,omitempty"`
	// SerialWallNS is the summed Result.Wall of those direct runs per app.
	SerialWallNS map[string]int64 `json:"serial_wall_ns,omitempty"`
}

func runRef(cfg refConfig) (*refRecord, error) {
	p := cfg.Plan
	rec := &refRecord{}

	// The cells and the kinds to reproduce directly, from the plan.
	type cell struct{ app, gpu string }
	var cells []cell
	seen := map[cell]bool{}
	direct := map[sim.Kind]bool{}
	addCell := func(app, gpu string) {
		if c := (cell{app, gpu}); !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
	}
	for _, j := range p.Jobs {
		addCell(j.App, j.GPU)
		if j.Threads > 1 {
			direct[j.Kind] = true
		}
	}
	for _, a := range p.Apps {
		addCell(a, theGPU)
		direct[sim.Basic], direct[sim.Memory] = true, true
	}

	if cfg.HW {
		rec.HWCycles = map[string]uint64{}
	}
	if len(direct) > 0 {
		rec.Digests = map[string]string{}
		rec.SerialWallNS = map[string]int64{}
	}
	for _, c := range cells {
		app, err := workload.Generate(c.app, p.Scale)
		if err != nil {
			return nil, err
		}
		gpu, ok := config.Preset(c.gpu)
		if !ok {
			return nil, fmt.Errorf("unknown GPU preset %q", c.gpu)
		}
		if cfg.HW {
			t0 := time.Now()
			res, err := hwmodel.Run(app, gpu, hwmodel.DefaultParams())
			if err != nil {
				return nil, fmt.Errorf("hwmodel %s/%s: %w", c.app, c.gpu, err)
			}
			rec.HWNS += time.Since(t0).Nanoseconds()
			rec.HWCycles[c.app+"/"+c.gpu] = res.Cycles
		}
		for _, kind := range []sim.Kind{sim.Basic, sim.Memory} {
			if !direct[kind] {
				continue
			}
			res, err := sim.Run(app, gpu, sim.Options{Kind: kind})
			if err != nil {
				return nil, fmt.Errorf("reference %s/%s/%v: %w", c.app, c.gpu, kind, err)
			}
			jr, err := parseCanonical(regress.Canonical(res))
			if err != nil {
				return nil, err
			}
			rec.Digests[jr.Key] = jr.Digest
			rec.SerialWallNS[c.app] += res.Wall.Nanoseconds()
		}
	}
	return rec, nil
}
