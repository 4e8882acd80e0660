package analytic

import (
	"swiftsim/internal/cache"
	"swiftsim/internal/config"
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
)

// Backend replaces everything below the L1 — interconnect, L2 slices and
// DRAM — with an analytical model, while the L1 (and the LD/ST units above
// it) stay cycle-accurate. It demonstrates the framework's third
// hybridization boundary: any level of the memory hierarchy can be swapped
// behind the mem.Port interface, exactly as the paper's §III-B3 promises
// ("architects can also use analytical models for other modules as
// needed").
//
// Requests are classified by a timeless functional model of the aggregate
// L2 and complete after the NoC+L2 (hit) or NoC+L2+DRAM (miss) latency
// plus bandwidth-meter queueing.
type Backend struct {
	name    string
	eng     *engine.Engine
	l2      *cache.Functional
	latL2   uint64
	latDRAM uint64
	noc     *BandwidthMeter
	dram    *BandwidthMeter

	inflight int
	hits     *metrics.Counter
	misses   *metrics.Counter
	writes   *metrics.Counter
}

// NewBackend builds the analytical below-L1 backend for gpu. Latencies are
// end-to-end from the L1's perspective (one NoC round trip is folded in).
func NewBackend(name string, eng *engine.Engine, gpu config.GPU, g *metrics.Gatherer) *Backend {
	l2cfg := gpu.L2
	l2cfg.Sets *= gpu.MemPartitions // aggregate capacity across slices
	return &Backend{
		name:    name,
		eng:     eng,
		l2:      cache.NewFunctional(l2cfg),
		latL2:   uint64(2*gpu.NoCLatency + gpu.L2.HitLatency),
		latDRAM: uint64(2*gpu.NoCLatency + gpu.L2.HitLatency + gpu.DRAMLatency),
		noc:     NewBandwidthMeterRate(1 / float64(gpu.MemPartitions)),
		dram:    NewBandwidthMeterRate(24.0 / float64(gpu.DRAMBanksPerPartition*gpu.MemPartitions)),
		hits:    g.Counter(name + ".l2_hit"),
		misses:  g.Counter(name + ".l2_miss"),
		writes:  g.Counter(name + ".write"),
	}
}

// Name implements engine.Module.
func (b *Backend) Name() string { return b.name }

// Kind implements engine.Module.
func (b *Backend) Kind() engine.ModelKind { return engine.Analytical }

// Accept implements mem.Port: classify, meter, and schedule completion.
func (b *Backend) Accept(r *mem.Request) bool {
	now := b.eng.Cycle()
	nocDelay := b.noc.Reserve(now, 1)
	hit := b.l2.Access(r.Addr, r.Write)
	if r.Write {
		b.writes.Inc()
		// Write-through traffic is consumed here; the store already
		// retired at the L1. Misses still book DRAM bandwidth.
		if !hit {
			b.dram.Reserve(now, 1)
		}
		if r.WantsReply() {
			b.eng.Schedule(nocDelay+b.latL2, r.Retirement(b, mem.LevelL2))
		} else {
			r.Complete(mem.LevelL2)
		}
		return true
	}
	if hit {
		b.hits.Inc()
		b.eng.Schedule(nocDelay+b.latL2, r.Retirement(b, mem.LevelL2))
		return true
	}
	b.misses.Inc()
	dramDelay := b.dram.Reserve(now, 1)
	b.eng.Schedule(nocDelay+dramDelay+b.latDRAM, r.Retirement(b, mem.LevelDRAM))
	return true
}

// Retire implements mem.Stage: the modeled latency has elapsed.
func (b *Backend) Retire(r *mem.Request, lvl mem.Level) { r.Complete(lvl) }
