package smcore

import (
	"swiftsim/internal/config"
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/trace"
)

// ldstQueueCap bounds memory instructions concurrently tracked per LD/ST
// unit.
const ldstQueueCap = 8

// icacheCapacityLines and icacheMissLatency parameterize the detailed
// configuration's per-sub-core instruction cache.
const (
	icacheCapacityLines = 64
	icacheMissLatency   = 40
)

// NewCycleAccurateUnits returns the fully cycle-accurate UnitSet used by
// the detailed (Accel-Sim-class) simulator: ALUPipelines for every
// arithmetic class — with one DP pipeline shared per sub-core pair when the
// configuration says "DP:0.5x" — and an LDSTUnit feeding the SM's L1 port.
//
// sectorBytes is the memory-system transaction size (the L1 sector size);
// l1For returns the L1 data-cache port of the given SM.
func NewCycleAccurateUnits(cfg config.SM, eng engine.Context, g *metrics.Gatherer, sectorBytes int, l1For func(smID int) mem.Port) UnitSet {
	type dpKey struct{ sm, pair int }
	sharedDP := make(map[dpKey]Unit)

	pipe := func(name string, lat, lanes int) Unit {
		// Each arithmetic pipeline sits behind an operand-collection
		// stage reading through the banked register file — part of the
		// per-cycle detail that the hybrid configurations drop.
		return NewOperandCollector("oc."+name[4:],
			NewALUPipeline(name, lat, cfg.IssueInterval(lanes), 1, g), g)
	}
	alu := func(smID, sub int, class trace.OpClass) Unit {
		switch class {
		case trace.OpInt:
			return pipe("alu.INT", cfg.IntLatency, cfg.IntLanes)
		case trace.OpSP:
			return pipe("alu.SP", cfg.SPLatency, cfg.SPLanes)
		case trace.OpSFU:
			return pipe("alu.SFU", cfg.SFULatency, cfg.SFULanes)
		case trace.OpDP:
			if !cfg.DPLanesHalf {
				return pipe("alu.DP", cfg.DPLatency, cfg.DPLanes)
			}
			key := dpKey{smID, sub / 2}
			if u, ok := sharedDP[key]; ok {
				return u
			}
			u := pipe("alu.DP", cfg.DPLatency, cfg.DPLanes)
			sharedDP[key] = u
			return u
		default:
			// Unknown arithmetic class: report the hole by returning nil;
			// NewSM turns a nil unit into a validation error at assembly
			// time instead of a process-killing panic mid-sweep.
			return nil
		}
	}
	ldst := func(smID, sub int) Unit {
		return NewLDSTUnit("ldst", eng, l1For(smID), smID, sectorBytes,
			cfg.LDSTLanes, cfg.SharedMemLatency, ldstQueueCap, g)
	}
	icache := func(smID, sub int) *ICache {
		return NewICache("icache", icacheCapacityLines, icacheMissLatency, g)
	}
	return UnitSet{ALU: alu, LDST: ldst, ICache: icache}
}
