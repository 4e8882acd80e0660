package cache

import (
	"fmt"

	"swiftsim/internal/config"
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/obs"
)

// bankQueueDepth bounds each bank's input queue; Accept exerts
// backpressure beyond it.
const bankQueueDepth = 16

// Timed is the cycle-accurate sectored cache module. It models banked
// access with conflicts, hit latency, MSHR allocation/merging with stalls,
// streaming (non-reserving) L1 behaviour, write-through or write-back
// policies, and dirty evictions. It implements engine.Ticker on the
// upstream side and mem.Port for request entry; downstream traffic goes out
// through the port supplied at construction.
type Timed struct {
	name  string
	cfg   config.Cache
	level mem.Level
	eng   engine.Context
	wake  func() // engine activation callback (nil when standalone)
	down  mem.Port

	tags  *tags
	mshr  *mshrTable
	banks []mem.FIFO[*mem.Request] // per-bank input queues, bankQueueDepth deep

	// toDown holds downstream requests (fetches, write-throughs,
	// writebacks) not yet accepted by the next level.
	toDown mem.FIFO[*mem.Request]

	// inflight counts upstream requests accepted but not yet completed.
	inflight int

	hits, misses *metrics.Counter
	// readHits/readMisses count the read subset of hits/misses, so hit
	// rates can be compared against read-only models (the reuse profiler
	// never services a store from the L1).
	readHits, readMisses *metrics.Counter
	sectorMisses         *metrics.Counter // line present, sector absent
	bankConflicts        *metrics.Counter
	mshrMerges           *metrics.Counter
	mshrStalls           *metrics.Counter
	evictions            *metrics.Counter
	writebacks           *metrics.Counter
	writeAccesses        *metrics.Counter

	// tracing. trOn caches tr.Enabled(RequestLevel); with tracing off the
	// request path's only observability cost is this bool.
	tr    *obs.Tracer
	trTid int32
	trOn  bool
}

// SetTracer installs the cache's tracer (nil for off) and registers its
// trace track. Request lifecycle spans (accept → retire) are emitted at
// RequestLevel, named for the hierarchy level that serviced the request.
func (c *Timed) SetTracer(t *obs.Tracer) {
	c.tr = t
	c.trOn = t.Enabled(obs.RequestLevel)
	if c.trOn {
		c.trTid = t.RegisterTrack(c.name)
	}
}

// NewTimed constructs a cycle-accurate cache named name (the metrics
// prefix), at hierarchy level level, writing downstream traffic to down.
func NewTimed(name string, cfg config.Cache, level mem.Level, eng engine.Context, down mem.Port, g *metrics.Gatherer) *Timed {
	c := &Timed{
		name:          name,
		cfg:           cfg,
		level:         level,
		eng:           eng,
		down:          down,
		tags:          newTags(cfg),
		mshr:          newMSHR(cfg.MSHREntries, cfg.MSHRMaxMerge),
		banks:         make([]mem.FIFO[*mem.Request], cfg.Banks),
		hits:          g.Counter(name + ".hit"),
		misses:        g.Counter(name + ".miss"),
		readHits:      g.Counter(name + ".read_hit"),
		readMisses:    g.Counter(name + ".read_miss"),
		sectorMisses:  g.Counter(name + ".sector_miss"),
		bankConflicts: g.Counter(name + ".bank_conflict"),
		mshrMerges:    g.Counter(name + ".mshr_merge"),
		mshrStalls:    g.Counter(name + ".mshr_stall"),
		evictions:     g.Counter(name + ".eviction"),
		writebacks:    g.Counter(name + ".writeback"),
		writeAccesses: g.Counter(name + ".write"),
	}
	return c
}

// Name implements engine.Module.
func (c *Timed) Name() string { return c.name }

// Kind implements engine.Module.
func (c *Timed) Kind() engine.ModelKind { return engine.CycleAccurate }

// Busy implements engine.Ticker: the cache has per-cycle work while any
// request is queued, in flight, or waiting to go downstream.
func (c *Timed) Busy() bool {
	return c.inflight > 0 || c.toDown.Len() > 0
}

// SetWake implements engine.Ticker: an idle cache leaves the engine's
// per-cycle tick set and re-enters it when a request arrives.
func (c *Timed) SetWake(wake func()) { c.wake = wake }

// Accept implements mem.Port. Requests are routed to a bank by sector
// address; a full bank queue rejects the request.
func (c *Timed) Accept(r *mem.Request) bool {
	b := c.bankOf(r.Addr)
	if c.banks[b].Len() >= bankQueueDepth {
		c.bankConflicts.Inc()
		return false
	}
	c.banks[b].Push(r)
	c.inflight++
	if c.trOn {
		r.T0 = c.eng.Cycle()
	}
	if c.wake != nil {
		c.wake()
	}
	return true
}

func (c *Timed) bankOf(addr uint64) int {
	return int((addr >> c.tags.sectorShift) % uint64(c.cfg.Banks))
}

// PreTick implements engine.PreTicker: drain pending downstream traffic.
// The engine runs it immediately before Tick.
func (c *Timed) PreTick(cycle uint64) {
	c.drainDown()
}

// Tick implements engine.Ticker: let each bank process up to Throughput
// requests. Downstream drains happen in PreTick.
func (c *Timed) Tick(cycle uint64) {
	for b := range c.banks {
		q := &c.banks[b]
		for n := 0; n < c.cfg.Throughput && q.Len() > 0; n++ {
			if !c.process(q.Front()) {
				// MSHR stall: head-of-line blocks the bank.
				c.mshrStalls.Inc()
				break
			}
			q.Pop()
		}
	}
}

func (c *Timed) drainDown() {
	for c.toDown.Len() > 0 {
		if !c.down.Accept(c.toDown.Front()) {
			return
		}
		c.toDown.Pop()
	}
}

// process services one request; it returns false if the request must stall
// (MSHR full or merge limit reached).
func (c *Timed) process(r *mem.Request) bool {
	if r.Write {
		c.processWrite(r)
		return true
	}
	l, sectorHit := c.tags.lookup(r.Addr)
	if sectorHit {
		c.hits.Inc()
		c.readHits.Inc()
		c.complete(r, c.level)
		return true
	}
	// Miss: park in the MSHR and fetch the sector downstream if needed.
	lineAddr := c.tags.lineAddr(r.Addr)
	sector := c.tags.sector(r.Addr)
	switch c.mshr.add(lineAddr, sector, r) {
	case mshrStall:
		return false
	case mshrMerged:
		c.mshrMerges.Inc()
	case mshrNewSector, mshrNewEntry:
		c.fetch(r)
	}
	if l != nil {
		c.sectorMisses.Inc()
	}
	c.misses.Inc()
	c.readMisses.Inc()
	return true
}

func (c *Timed) processWrite(r *mem.Request) {
	c.writeAccesses.Inc()
	if c.cfg.WriteBack {
		// Write-back with write-allocate at sector granularity: a
		// store to a resident sector marks it dirty; a store miss
		// installs the sector directly (stores overwrite the whole
		// sector in this model, so no fetch-on-write is needed).
		if _, hit := c.tags.lookup(r.Addr); hit {
			c.hits.Inc()
		} else {
			c.misses.Inc()
			c.installSector(r)
		}
		c.tags.markDirty(r.Addr)
	} else {
		// Write-through, no-allocate (streaming L1): update the
		// sector if resident, and always forward the write.
		if _, hit := c.tags.lookup(r.Addr); hit {
			c.hits.Inc()
		} else {
			c.misses.Inc()
		}
		c.forwardWrite(r)
	}
	// The store itself retires after the hit latency regardless of the
	// downstream write completing (GPU stores are fire-and-forget).
	c.complete(r, c.level)
}

// fetch issues a downstream read for the sector r missed on. The cache
// owns the fetch and hears of the fill through RequestDone.
func (c *Timed) fetch(r *mem.Request) {
	dr := r.Sibling()
	dr.Addr = r.Addr &^ uint64(c.cfg.SectorBytes-1)
	dr.Size = c.cfg.SectorBytes
	dr.PC = r.PC
	dr.SMID = r.SMID
	dr.Owner = c
	c.toDown.Push(dr)
}

func (c *Timed) forwardWrite(r *mem.Request) {
	w := r.Sibling()
	w.Addr = r.Addr &^ uint64(c.cfg.SectorBytes-1)
	w.Write = true
	w.Size = c.cfg.SectorBytes
	w.PC = r.PC
	w.SMID = r.SMID
	c.toDown.Push(w)
}

// RequestDone implements mem.Requester for the cache's fetches: the sector
// has arrived from downstream. Install it, write back any dirty eviction,
// and release the requests parked on it.
func (c *Timed) RequestDone(dr *mem.Request) {
	from := dr.ServicedBy
	c.installSector(dr)
	for _, waiter := range c.mshr.fill(c.tags.lineAddr(dr.Addr), c.tags.sector(dr.Addr)) {
		waiter.ServicedBy = from
		c.complete(waiter, from)
	}
}

// installSector installs the sector by addresses, emitting writebacks
// (from by's pool) for dirty sectors of any displaced line.
func (c *Timed) installSector(by *mem.Request) {
	ev := c.tags.install(by.Addr)
	if !ev.wasValid {
		return
	}
	c.evictions.Inc()
	if !c.cfg.WriteBack || ev.dirtySector == 0 {
		return
	}
	base := ev.lineAddr << c.tags.lineShift
	for s := 0; s < c.tags.sectorsPerLine; s++ {
		if ev.dirtySector&(1<<uint(s)) == 0 {
			continue
		}
		c.writebacks.Inc()
		wb := by.Sibling()
		wb.Addr = base + uint64(s*c.cfg.SectorBytes)
		wb.Write = true
		wb.Size = c.cfg.SectorBytes
		c.toDown.Push(wb)
	}
}

// complete retires an upstream request after the hit latency.
func (c *Timed) complete(r *mem.Request, lvl mem.Level) {
	c.eng.Schedule(uint64(c.cfg.HitLatency), r.Retirement(c, lvl))
}

// Retire implements mem.Stage: the hit latency of a request passed to
// complete has elapsed.
func (c *Timed) Retire(r *mem.Request, lvl mem.Level) {
	c.inflight--
	if c.trOn {
		// Emit before Complete, which may recycle r.
		c.tr.Emit(obs.Event{Name: lvl.String(), Cat: "mem", Ph: obs.PhaseSpan,
			Ts: r.T0, Dur: c.eng.Cycle() - r.T0, Tid: c.trTid,
			Arg1Name: "addr", Arg1: r.Addr, Arg2Name: "sm", Arg2: uint64(r.SMID)})
	}
	r.Complete(lvl)
}

// Invalidate drops all cached lines, modeling the L1 flush real GPUs
// perform at kernel boundaries. It must only be used on write-through
// caches (no dirty data to lose); in-flight MSHR fills are unaffected and
// will re-install their sectors.
func (c *Timed) Invalidate() {
	c.tags.invalidateAll()
}

// MSHRUsed exposes MSHR occupancy for tests and debugging.
func (c *Timed) MSHRUsed() int { return c.mshr.used() }

func (c *Timed) String() string {
	return fmt.Sprintf("%s: %d KiB %d-way sectored cache (%s)", c.name,
		c.cfg.SizeBytes()/1024, c.cfg.Ways, c.cfg.Replacement)
}
