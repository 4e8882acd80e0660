package config

// Presets for the three NVIDIA GPUs validated in the paper (Tables I and
// II). Parameters not disclosed in the paper follow the Accel-Sim
// configuration files for the corresponding architectures.

// RTX2080Ti returns the NVIDIA RTX 2080 Ti (Turing, TU102) configuration of
// Table II: 68 SMs, 4 sub-cores each, GTO scheduling, sectored
// write-through L1, 22 memory partitions.
func RTX2080Ti() GPU {
	return GPU{
		Name:   "RTX2080Ti",
		NumSMs: 68,
		SM: SM{
			SubCores:             4,
			MaxWarps:             32,
			MaxBlocks:            16,
			Registers:            65536,
			SharedMemBytes:       65536,
			Scheduler:            GTO,
			SchedulersPerSubCore: 1,
			IntLanes:             16,
			SPLanes:              16,
			DPLanes:              1,
			DPLanesHalf:          true, // Table II: DP:0.5x
			SFULanes:             4,
			LDSTLanes:            4,
			IntLatency:           4,
			SPLatency:            4,
			DPLatency:            40,
			SFULatency:           20,
			SharedMemLatency:     24,
		},
		L1: Cache{
			Sets:         64,
			Ways:         8, // 64 KiB
			LineBytes:    128,
			SectorBytes:  32,
			Banks:        4,
			MSHREntries:  256,
			MSHRMaxMerge: 8,
			HitLatency:   32,
			Replacement:  LRU,
			WriteBack:    false,
			Throughput:   1,
		},
		L2: Cache{
			// 5.5 MiB total over 22 partitions = 256 KiB per slice.
			Sets:         512,
			Ways:         4,
			LineBytes:    128,
			SectorBytes:  32,
			Banks:        2,
			MSHREntries:  192,
			MSHRMaxMerge: 4,
			HitLatency:   188,
			Replacement:  LRU,
			WriteBack:    true,
			Throughput:   1,
		},
		MemPartitions:         22,
		DRAMLatency:           227,
		DRAMBanksPerPartition: 16,
		DRAMRowHitLatency:     100,
		NoCLatency:            12,
		NoCFlitBytes:          32,
		NoCTopology:           "crossbar",
	}
}

// RTX3060 returns the NVIDIA RTX 3060 (Ampere, GA106) configuration of
// Table I: 28 SMs, 3 MiB L2.
func RTX3060() GPU {
	g := RTX2080Ti()
	g.Name = "RTX3060"
	g.NumSMs = 28
	// GA106: 3584 CUDA cores over 28 SMs = 128/SM = 32 SP lanes per
	// sub-core (Ampere doubled the FP32 datapath).
	g.SM.SPLanes = 32
	g.SM.MaxWarps = 48
	g.SM.SharedMemBytes = 102400
	// 3 MiB L2 over 12 partitions (192-bit bus) = 256 KiB per slice.
	g.MemPartitions = 12
	g.L2.Sets = 512
	g.L2.Ways = 4
	g.DRAMLatency = 242
	g.L2.HitLatency = 204
	return g
}

// RTX3090 returns the NVIDIA RTX 3090 (Ampere, GA102) configuration of
// Table I: 82 SMs, 6 MiB L2.
func RTX3090() GPU {
	g := RTX2080Ti()
	g.Name = "RTX3090"
	g.NumSMs = 82
	// GA102: 10496 CUDA cores over 82 SMs = 128/SM.
	g.SM.SPLanes = 32
	g.SM.MaxWarps = 48
	g.SM.SharedMemBytes = 102400
	// 6 MiB L2 over 24 partitions (384-bit bus) = 256 KiB per slice.
	g.MemPartitions = 24
	g.L2.Sets = 512
	g.L2.Ways = 4
	g.DRAMLatency = 242
	g.L2.HitLatency = 204
	return g
}

// Preset returns the named preset configuration, or false if the name is
// unknown. Recognized names are "RTX2080Ti", "RTX3060" and "RTX3090".
func Preset(name string) (GPU, bool) {
	switch name {
	case "RTX2080Ti", "rtx2080ti", "2080ti":
		return RTX2080Ti(), true
	case "RTX3060", "rtx3060", "3060":
		return RTX3060(), true
	case "RTX3090", "rtx3090", "3090":
		return RTX3090(), true
	default:
		return GPU{}, false
	}
}

// PresetNames lists the available preset configuration names in a stable
// order.
func PresetNames() []string { return []string{"RTX2080Ti", "RTX3060", "RTX3090"} }
