// Package config implements the Hardware Configuration Collector of the
// Swift-Sim frontend: typed GPU hardware descriptions, a text configuration
// file format, validation, and presets for the three NVIDIA GPUs the paper
// evaluates (RTX 2080 Ti, RTX 3060, RTX 3090).
package config

import (
	"fmt"

	"swiftsim/internal/trace"
)

// Replacement selects a cache replacement policy. The paper motivates
// Swift-Sim partly by noting that analytical cache models are typically
// locked to LRU; the cycle-accurate cache module supports all three.
type Replacement int

const (
	// LRU evicts the least recently used line.
	LRU Replacement = iota
	// FIFO evicts lines in fill order.
	FIFO
	// Random evicts a pseudo-random line (deterministic xorshift so
	// simulations stay reproducible).
	Random
)

// String returns the canonical configuration-file spelling of r.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "RANDOM"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// ParseReplacement converts a configuration-file spelling into a Replacement.
func ParseReplacement(s string) (Replacement, error) {
	switch s {
	case "LRU", "lru":
		return LRU, nil
	case "FIFO", "fifo":
		return FIFO, nil
	case "RANDOM", "random", "Random":
		return Random, nil
	default:
		return 0, fmt.Errorf("config: unknown replacement policy %q", s)
	}
}

// SchedPolicy selects the warp scheduling policy of the Warp Scheduler &
// Dispatch module.
type SchedPolicy int

const (
	// GTO is greedy-then-oldest: keep issuing from the last warp until it
	// stalls, then fall back to the oldest ready warp.
	GTO SchedPolicy = iota
	// LRR is loose round-robin over ready warps.
	LRR
	// OldestFirst always issues from the oldest ready warp.
	OldestFirst
)

// String returns the canonical configuration-file spelling of p.
func (p SchedPolicy) String() string {
	switch p {
	case GTO:
		return "GTO"
	case LRR:
		return "LRR"
	case OldestFirst:
		return "OLDEST"
	default:
		return fmt.Sprintf("SchedPolicy(%d)", int(p))
	}
}

// ParseSchedPolicy converts a configuration-file spelling into a SchedPolicy.
func ParseSchedPolicy(s string) (SchedPolicy, error) {
	switch s {
	case "GTO", "gto":
		return GTO, nil
	case "LRR", "lrr":
		return LRR, nil
	case "OLDEST", "oldest", "OldestFirst":
		return OldestFirst, nil
	default:
		return 0, fmt.Errorf("config: unknown scheduler policy %q", s)
	}
}

// Cache describes one level of the sectored cache hierarchy.
type Cache struct {
	// Sets and Ways give the organization; capacity is
	// Sets*Ways*LineBytes.
	Sets int
	Ways int
	// LineBytes is the cache line size; SectorBytes the sector size.
	// Fills and misses are tracked per sector (Table II: 128 B lines with
	// 32 B sectors at both levels).
	LineBytes   int
	SectorBytes int
	// Banks is the number of independently addressed banks; concurrent
	// accesses to the same bank in one cycle conflict.
	Banks int
	// MSHREntries is the number of miss-status holding registers;
	// MSHRMaxMerge the maximum number of requests merged into one entry.
	MSHREntries  int
	MSHRMaxMerge int
	// HitLatency is the load-to-use latency of a hit, in core cycles.
	HitLatency int
	// Replacement selects the replacement policy.
	Replacement Replacement
	// WriteBack selects write-back (true, L2) or write-through (false,
	// L1) behaviour.
	WriteBack bool
	// Throughput is the number of accesses each bank accepts per cycle.
	Throughput int
}

// SizeBytes returns the total capacity of the cache in bytes.
func (c Cache) SizeBytes() int { return c.Sets * c.Ways * c.LineBytes }

// SectorsPerLine returns the number of sectors in one line.
func (c Cache) SectorsPerLine() int { return c.LineBytes / c.SectorBytes }

// SM describes one streaming multiprocessor and its sub-cores.
type SM struct {
	// SubCores is the number of sub-cores (warp-scheduler partitions).
	SubCores int
	// MaxWarps and MaxBlocks bound concurrent residency per SM.
	MaxWarps  int
	MaxBlocks int
	// Registers and SharedMemBytes are the per-SM register file size (in
	// 32-bit registers) and shared-memory capacity.
	Registers      int
	SharedMemBytes int
	// Scheduler is the warp-scheduling policy used by every sub-core.
	Scheduler SchedPolicy
	// SchedulersPerSubCore is the number of warp schedulers per sub-core
	// (1 on all modeled GPUs).
	SchedulersPerSubCore int

	// Execution-unit lane counts per sub-core. A warp instruction of
	// width trace.WarpSize issued to a unit with L lanes occupies the unit
	// for ceil(trace.WarpSize/L) cycles (its initiation interval).
	// DPLanesHalf handles the "DP:0.5x" entry of Table II: when true,
	// DPLanes is the lane count per *two* sub-cores.
	IntLanes    int
	SPLanes     int
	DPLanes     int
	DPLanesHalf bool
	SFULanes    int
	LDSTLanes   int

	// Fixed execution latencies per unit class, in cycles.
	IntLatency int
	SPLatency  int
	DPLatency  int
	SFULatency int
	// SharedMemLatency is the access latency of shared memory.
	SharedMemLatency int
}

// IssueInterval returns the initiation interval in cycles for a warp
// instruction executed on a unit with the given lane count.
func (s SM) IssueInterval(lanes int) int {
	if lanes <= 0 {
		return trace.WarpSize * 2
	}
	return (trace.WarpSize + lanes - 1) / lanes
}

// GPU is the complete hardware description consumed by the performance
// model.
type GPU struct {
	// Name identifies the configuration (e.g. "RTX2080Ti").
	Name string
	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// SM describes each streaming multiprocessor.
	SM SM
	// L1 describes the per-SM L1 data cache; L2 one bank (slice) of the
	// shared L2. The L2 has one slice per memory partition.
	L1 Cache
	L2 Cache
	// MemPartitions is the number of memory partitions (each pairs an L2
	// slice with a DRAM channel).
	MemPartitions int
	// DRAMLatency is the average DRAM access latency in core cycles
	// (Table II "Memory: 227 cycles").
	DRAMLatency int
	// DRAMBanksPerPartition is the number of DRAM banks behind each
	// partition.
	DRAMBanksPerPartition int
	// DRAMRowHitLatency is the latency of a row-buffer hit.
	DRAMRowHitLatency int
	// NoCLatency is the one-way interconnect traversal latency in cycles
	// (crossbar) or per-hop latency (ring).
	NoCLatency int
	// NoCFlitBytes is the per-cycle per-port payload of the crossbar.
	NoCFlitBytes int
	// NoCTopology selects the interconnect module: "crossbar" (default,
	// empty string) or "ring". Swapping topologies changes nothing else —
	// the modular-NoC exploration the paper contrasts against analytical
	// NoC models.
	NoCTopology string
}

// CUDACores returns the marketing "CUDA core" count implied by the
// configuration (SMs × sub-cores × SP lanes), as listed in Table I.
func (g GPU) CUDACores() int { return g.NumSMs * g.SM.SubCores * g.SM.SPLanes }

// L2TotalBytes returns the total L2 capacity across all partitions.
func (g GPU) L2TotalBytes() int { return g.L2.SizeBytes() * g.MemPartitions }

// Validate checks the configuration for internal consistency and returns a
// descriptive error for the first problem found.
func (g GPU) Validate() error {
	if g.Name == "" {
		return fmt.Errorf("config: missing GPU name")
	}
	if g.NumSMs <= 0 {
		return fmt.Errorf("config %s: NumSMs must be positive, got %d", g.Name, g.NumSMs)
	}
	if g.MemPartitions <= 0 {
		return fmt.Errorf("config %s: MemPartitions must be positive, got %d", g.Name, g.MemPartitions)
	}
	if g.DRAMLatency <= 0 {
		return fmt.Errorf("config %s: DRAMLatency must be positive, got %d", g.Name, g.DRAMLatency)
	}
	if g.DRAMBanksPerPartition <= 0 {
		return fmt.Errorf("config %s: DRAMBanksPerPartition must be positive, got %d", g.Name, g.DRAMBanksPerPartition)
	}
	if g.NoCLatency < 0 {
		return fmt.Errorf("config %s: NoCLatency must be non-negative, got %d", g.Name, g.NoCLatency)
	}
	if g.NoCFlitBytes <= 0 {
		return fmt.Errorf("config %s: NoCFlitBytes must be positive, got %d", g.Name, g.NoCFlitBytes)
	}
	switch g.NoCTopology {
	case "", "crossbar", "ring":
	default:
		return fmt.Errorf("config %s: unknown NoC topology %q (want crossbar or ring)", g.Name, g.NoCTopology)
	}
	if err := validateSM(g.SM); err != nil {
		return fmt.Errorf("config %s: %w", g.Name, err)
	}
	if err := validateCache("L1", g.L1); err != nil {
		return fmt.Errorf("config %s: %w", g.Name, err)
	}
	if err := validateCache("L2", g.L2); err != nil {
		return fmt.Errorf("config %s: %w", g.Name, err)
	}
	if g.L1.WriteBack {
		return fmt.Errorf("config %s: L1 must be write-through (WriteBack=false)", g.Name)
	}
	return nil
}

func validateSM(s SM) error {
	switch {
	case s.SubCores <= 0:
		return fmt.Errorf("SM.SubCores must be positive, got %d", s.SubCores)
	case s.MaxWarps <= 0:
		return fmt.Errorf("SM.MaxWarps must be positive, got %d", s.MaxWarps)
	case s.MaxWarps%s.SubCores != 0:
		return fmt.Errorf("SM.MaxWarps (%d) must divide evenly across %d sub-cores", s.MaxWarps, s.SubCores)
	case s.MaxBlocks <= 0:
		return fmt.Errorf("SM.MaxBlocks must be positive, got %d", s.MaxBlocks)
	case s.Registers <= 0:
		return fmt.Errorf("SM.Registers must be positive, got %d", s.Registers)
	case s.SharedMemBytes < 0:
		return fmt.Errorf("SM.SharedMemBytes must be non-negative, got %d", s.SharedMemBytes)
	case s.IntLanes <= 0 || s.SPLanes <= 0 || s.SFULanes <= 0 || s.LDSTLanes <= 0:
		return fmt.Errorf("SM lane counts must be positive (INT=%d SP=%d SFU=%d LDST=%d)",
			s.IntLanes, s.SPLanes, s.SFULanes, s.LDSTLanes)
	case s.DPLanes < 0:
		return fmt.Errorf("SM.DPLanes must be non-negative, got %d", s.DPLanes)
	case s.IntLatency <= 0 || s.SPLatency <= 0 || s.DPLatency <= 0 || s.SFULatency <= 0:
		return fmt.Errorf("SM unit latencies must be positive (INT=%d SP=%d DP=%d SFU=%d)",
			s.IntLatency, s.SPLatency, s.DPLatency, s.SFULatency)
	case s.SharedMemLatency <= 0:
		return fmt.Errorf("SM.SharedMemLatency must be positive, got %d", s.SharedMemLatency)
	}
	return nil
}

func validateCache(level string, c Cache) error {
	switch {
	case c.Sets <= 0 || c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("%s.Sets must be a positive power of two, got %d", level, c.Sets)
	case c.Ways <= 0:
		return fmt.Errorf("%s.Ways must be positive, got %d", level, c.Ways)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("%s.LineBytes must be a positive power of two, got %d", level, c.LineBytes)
	case c.SectorBytes <= 0 || c.SectorBytes&(c.SectorBytes-1) != 0:
		return fmt.Errorf("%s.SectorBytes must be a positive power of two, got %d", level, c.SectorBytes)
	case c.SectorBytes > c.LineBytes:
		return fmt.Errorf("%s.SectorBytes (%d) exceeds LineBytes (%d)", level, c.SectorBytes, c.LineBytes)
	case c.LineBytes%c.SectorBytes != 0:
		return fmt.Errorf("%s.LineBytes (%d) not a multiple of SectorBytes (%d)", level, c.LineBytes, c.SectorBytes)
	case c.Banks <= 0 || c.Banks&(c.Banks-1) != 0:
		return fmt.Errorf("%s.Banks must be a positive power of two, got %d", level, c.Banks)
	case c.MSHREntries <= 0:
		return fmt.Errorf("%s.MSHREntries must be positive, got %d", level, c.MSHREntries)
	case c.MSHRMaxMerge <= 0:
		return fmt.Errorf("%s.MSHRMaxMerge must be positive, got %d", level, c.MSHRMaxMerge)
	case c.HitLatency <= 0:
		return fmt.Errorf("%s.HitLatency must be positive, got %d", level, c.HitLatency)
	case c.Throughput <= 0:
		return fmt.Errorf("%s.Throughput must be positive, got %d", level, c.Throughput)
	}
	return nil
}
