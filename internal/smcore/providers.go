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
// sub-core. It is CycleAccurateUnits sized for one SM.
//
// sectorBytes is the memory-system transaction size (the L1 sector size);
// l1For returns the L1 data-cache port of the given SM.
func NewCycleAccurateUnits(cfg config.SM, eng engine.Context, g *metrics.Gatherer, sectorBytes int, l1For func(smID int) mem.Port) UnitSet {
	return CycleAccurateUnits(1, cfg, eng, g, sectorBytes, l1For)
}

// CycleAccurateUnits is NewCycleAccurateUnits for numSMs SMs, built per
// class: the pipelines and their registers, the operand collectors, the
// LD/ST units and their queues, and the instruction caches and their line
// arrays each come from one slab sized for numSMs SMs, which grows by
// further chunks of that size if asked for more. Each class's name and
// counters are resolved once, when its first unit is built, and shared by
// every later unit of the class, so an assembly names each counter once
// rather than once per sub-core.
func CycleAccurateUnits(numSMs int, cfg config.SM, eng engine.Context, g *metrics.Gatherer, sectorBytes int, l1For func(smID int) mem.Port) UnitSet {
	subs := max(numSMs, 1) * max(cfg.SubCores, 1)
	stagesPerSub := 0
	for _, lat := range []int{cfg.IntLatency, cfg.SPLatency, cfg.DPLatency, cfg.SFULatency} {
		stagesPerSub += max(lat, 1)
	}
	type pipeClass struct {
		alu aluClass
		oc  collectorClass
	}
	var classes [4]pipeClass // indexed by trace.OpInt..trace.OpSFU
	pipes := mem.NewSlab[ALUPipeline](4 * subs)
	stages := mem.NewSlab[pipeSlot](stagesPerSub * subs)
	ocs := mem.NewSlab[OperandCollector](4 * subs)
	alu := ALUs(cfg, func(class trace.OpClass, lat, lanes int) Unit {
		// Each arithmetic pipeline sits behind an operand-collection
		// stage reading through the banked register file — part of the
		// per-cycle detail that the hybrid configurations drop.
		c := &classes[class]
		if c.alu.issued == nil {
			name := class.String()
			*c = pipeClass{alu: newALUClass("alu."+name, g), oc: newCollectorClass("oc."+name, g)}
		}
		return newOperandCollector(c.oc, newALUPipeline(c.alu, lat, cfg.IssueInterval(lanes), pipes, stages), ocs)
	})
	var ldstC ldstClass
	ldstUnits := mem.NewSlab[LDSTUnit](subs)
	queues := mem.NewSlab[*ldstInst](subs * ringSize(ldstQueueCap))
	ldst := func(smID, sub int) Unit {
		if ldstC.issued == nil {
			ldstC = newLDSTClass("ldst", g)
		}
		return newLDSTUnit(ldstC, eng, l1For(smID), smID, sectorBytes,
			cfg.LDSTLanes, cfg.SharedMemLatency, ldstQueueCap, ldstUnits, queues)
	}
	var icacheC icacheClass
	icaches := mem.NewSlab[ICache](subs)
	lines := mem.NewSlab[uint64](subs * 2 * icacheCapacityLines)
	icache := func(smID, sub int) *ICache {
		if icacheC.hits == nil {
			icacheC = newICacheClass("icache", g)
		}
		return newICache(icacheC, icacheCapacityLines, icacheMissLatency, icaches, lines)
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
	// sharedDP[smID*pairs+sub/2] is the DP unit of a sub-core pair.
	pairs := (cfg.SubCores + 1) / 2
	var sharedDP []Unit
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
			i := smID*pairs + sub/2
			if i >= len(sharedDP) {
				sharedDP = append(sharedDP, make([]Unit, i+1-len(sharedDP))...)
			}
			if sharedDP[i] == nil {
				sharedDP[i] = unit(class, cfg.DPLatency, cfg.DPLanes)
			}
			return sharedDP[i]
		default:
			return nil
		}
	}
}
