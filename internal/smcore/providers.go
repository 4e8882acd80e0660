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
// the detailed (Accel-Sim-class) simulator: ALUPipelines laid out by ALUs,
// an LDSTUnit feeding the SM's L1 port and an instruction cache per
// sub-core.
//
// sectorBytes is the memory-system transaction size (the L1 sector size);
// l1For returns the L1 data-cache port of the given SM.
//
// Each class's name and counters are resolved once, when its first unit is
// built, and shared by every later unit of the class, so an assembly names
// each counter once rather than once per sub-core.
func NewCycleAccurateUnits(cfg config.SM, eng engine.Context, g *metrics.Gatherer, sectorBytes int, l1For func(smID int) mem.Port) UnitSet {
	type pipeClass struct {
		alu aluClass
		oc  collectorClass
	}
	var classes [4]pipeClass // indexed by trace.OpInt..trace.OpSFU
	alu := ALUs(cfg, func(class trace.OpClass, lat, lanes int) Unit {
		// Each arithmetic pipeline sits behind an operand-collection
		// stage reading through the banked register file — part of the
		// per-cycle detail that the hybrid configurations drop.
		c := &classes[class]
		if c.alu.issued == nil {
			name := class.String()
			*c = pipeClass{alu: newALUClass("alu."+name, g), oc: newCollectorClass("oc."+name, g)}
		}
		return newOperandCollector(c.oc, newALUPipeline(c.alu, lat, cfg.IssueInterval(lanes)))
	})
	var ldstC ldstClass
	ldst := func(smID, sub int) Unit {
		if ldstC.issued == nil {
			ldstC = newLDSTClass("ldst", g)
		}
		return newLDSTUnit(ldstC, eng, l1For(smID), smID, sectorBytes,
			cfg.LDSTLanes, cfg.SharedMemLatency, ldstQueueCap)
	}
	var icacheC icacheClass
	icache := func(smID, sub int) *ICache {
		if icacheC.hits == nil {
			icacheC = newICacheClass("icache", g)
		}
		return newICache(icacheC, icacheCapacityLines, icacheMissLatency)
	}
	return UnitSet{ALU: alu, LDST: ldst, ICache: icache}
}

// ALUs returns an ALU provider that lays out a sub-core's arithmetic units,
// building each with unit(class, latency, lanes): one unit per class per
// sub-core, except that a "DP:0.5x" configuration (Table II) shares one DP
// unit per sub-core pair. The cycle-accurate pipelines and the hybrid
// configurations' analytical models share this layout. An unknown class
// gets nil, which NewSM turns into a validation error at assembly time
// instead of a process-killing panic mid-sweep.
func ALUs(cfg config.SM, unit func(class trace.OpClass, lat, lanes int) Unit) func(smID, sub int, class trace.OpClass) Unit {
	type dpKey struct{ sm, pair int }
	sharedDP := make(map[dpKey]Unit)
	return func(smID, sub int, class trace.OpClass) Unit {
		switch class {
		case trace.OpInt:
			return unit(class, cfg.IntLatency, cfg.IntLanes)
		case trace.OpSP:
			return unit(class, cfg.SPLatency, cfg.SPLanes)
		case trace.OpSFU:
			return unit(class, cfg.SFULatency, cfg.SFULanes)
		case trace.OpDP:
			if !cfg.DPLanesHalf {
				return unit(class, cfg.DPLatency, cfg.DPLanes)
			}
			key := dpKey{smID, sub / 2}
			if u, ok := sharedDP[key]; ok {
				return u
			}
			u := unit(class, cfg.DPLatency, cfg.DPLanes)
			sharedDP[key] = u
			return u
		default:
			return nil
		}
	}
}
