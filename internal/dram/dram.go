// Package dram models the DRAM channel behind each memory partition: a
// bounded request queue, multiple banks with open-row state, FR-FCFS-style
// scheduling (row hits bypass older row misses within a small window), and
// the access latencies of Table II (227-cycle average miss latency on the
// RTX 2080 Ti).
package dram

import (
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/obs"
)

const (
	// queueCap bounds the per-partition request queue.
	queueCap = 64
	// frfcfsWindow is how deep the scheduler looks for row hits.
	frfcfsWindow = 8
	// rowBytes is the DRAM row (page) size used to derive row addresses.
	rowBytes = 2048
	// bankBusyRowHit / bankBusyRowMiss are the cycles a bank is occupied
	// per access (data transfer + precharge/activate for misses); the
	// requester additionally waits the full access latency.
	bankBusyRowHit  = 8
	bankBusyRowMiss = 24
)

// Partition is one DRAM channel. It implements mem.Port upstream (fed by
// its L2 slice) and engine.Ticker.
type Partition struct {
	name       string
	eng        *engine.Engine
	wake       func() // engine activation callback (nil when standalone)
	banks      int
	latency    uint64 // row-miss (full) access latency
	rowHitLat  uint64
	queue      []*mem.Request
	bankFreeAt []uint64
	openRow    []uint64
	rowOpen    []bool

	reads     *metrics.Counter
	writes    *metrics.Counter
	rowHits   *metrics.Counter
	rowMisses *metrics.Counter
	stalls    *metrics.Counter

	tr    *obs.Tracer
	trTid int32
	trOn  bool
}

// SetTracer installs the partition's tracer (nil for off) and registers
// its trace track. Request spans (accept → data return) are emitted at
// RequestLevel with a row hit/miss argument.
func (p *Partition) SetTracer(t *obs.Tracer) {
	p.tr = t
	p.trOn = t.Enabled(obs.RequestLevel)
	if p.trOn {
		p.trTid = t.RegisterTrack(p.name)
	}
}

// QueueDepth returns the number of requests waiting in the partition's
// queue — the DRAM column of the counter timeline.
func (p *Partition) QueueDepth() int { return len(p.queue) }

// New constructs a DRAM partition. latency and rowHitLatency are end-to-end
// access latencies in core cycles.
func New(name string, eng *engine.Engine, banks int, latency, rowHitLatency int, g *metrics.Gatherer) *Partition {
	if rowHitLatency <= 0 || rowHitLatency > latency {
		rowHitLatency = latency
	}
	return &Partition{
		name:       name,
		eng:        eng,
		banks:      banks,
		latency:    uint64(latency),
		rowHitLat:  uint64(rowHitLatency),
		bankFreeAt: make([]uint64, banks),
		openRow:    make([]uint64, banks),
		rowOpen:    make([]bool, banks),
		reads:      g.Counter(name + ".read"),
		writes:     g.Counter(name + ".write"),
		rowHits:    g.Counter(name + ".row_hit"),
		rowMisses:  g.Counter(name + ".row_miss"),
		stalls:     g.Counter(name + ".stall"),
	}
}

// Name implements engine.Module.
func (p *Partition) Name() string { return p.name }

// Kind implements engine.Module.
func (p *Partition) Kind() engine.ModelKind { return engine.CycleAccurate }

// Busy implements engine.Ticker: the partition needs ticks only while
// requests are queued (in-flight accesses complete via scheduled events).
func (p *Partition) Busy() bool { return len(p.queue) > 0 }

// SetWake implements engine.Ticker: an idle partition (empty queue)
// leaves the per-cycle tick set; an arriving request re-activates it. Bank
// timing state is kept in absolute cycles, so skipped idle cycles do not
// disturb it.
func (p *Partition) SetWake(wake func()) { p.wake = wake }

// Accept implements mem.Port.
func (p *Partition) Accept(r *mem.Request) bool {
	if len(p.queue) >= queueCap {
		p.stalls.Inc()
		return false
	}
	p.queue = append(p.queue, r)
	if p.trOn {
		r.T0 = p.eng.Cycle()
	}
	if p.wake != nil {
		p.wake()
	}
	return true
}

func (p *Partition) bankOf(addr uint64) int {
	return int((addr / rowBytes) % uint64(p.banks))
}

func (p *Partition) rowOf(addr uint64) uint64 {
	return addr / rowBytes / uint64(p.banks)
}

// Tick implements engine.Ticker: issue as many queued requests as have a
// free bank, preferring row hits within the scheduling window (FR-FCFS).
func (p *Partition) Tick(cycle uint64) {
	for {
		idx := p.pick(cycle)
		if idx < 0 {
			return
		}
		r := p.queue[idx]
		p.queue = append(p.queue[:idx], p.queue[idx+1:]...)
		p.service(cycle, r)
	}
}

// pick returns the queue index of the next request to service, or -1.
// Row hits within the window win over older row misses; otherwise the
// oldest request with a free bank is chosen.
func (p *Partition) pick(cycle uint64) int {
	window := len(p.queue)
	if window > frfcfsWindow {
		window = frfcfsWindow
	}
	oldest := -1
	for i := 0; i < window; i++ {
		r := p.queue[i]
		b := p.bankOf(r.Addr)
		if p.bankFreeAt[b] > cycle {
			continue
		}
		if p.rowOpen[b] && p.openRow[b] == p.rowOf(r.Addr) {
			return i // row hit wins immediately
		}
		if oldest < 0 {
			oldest = i
		}
	}
	return oldest
}

func (p *Partition) service(cycle uint64, r *mem.Request) {
	b := p.bankOf(r.Addr)
	row := p.rowOf(r.Addr)
	hit := p.rowOpen[b] && p.openRow[b] == row

	var lat, busy uint64
	if hit {
		p.rowHits.Inc()
		lat, busy = p.rowHitLat, bankBusyRowHit
	} else {
		p.rowMisses.Inc()
		lat, busy = p.latency, bankBusyRowMiss
	}
	p.rowOpen[b] = true
	p.openRow[b] = row
	p.bankFreeAt[b] = cycle + busy

	if r.Write {
		p.writes.Inc()
	} else {
		p.reads.Inc()
	}
	if hit {
		p.eng.Schedule(lat, r.Retirement((*rowHit)(p), mem.LevelDRAM))
	} else {
		p.eng.Schedule(lat, r.Retirement((*rowMiss)(p), mem.LevelDRAM))
	}
}

// rowHit and rowMiss are the partition as the mem.Stage of an access that
// hit or missed its bank's open row. Which of the two a request was
// scheduled through is the one bit its completion needs beyond the request
// itself (the trace span's row_hit argument), so the bit travels as the
// interface's type instead of in a closure per access.
type (
	rowHit  Partition
	rowMiss Partition
)

// Retire implements mem.Stage.
func (p *rowHit) Retire(r *mem.Request, _ mem.Level) { (*Partition)(p).retire(r, 1) }

// Retire implements mem.Stage.
func (p *rowMiss) Retire(r *mem.Request, _ mem.Level) { (*Partition)(p).retire(r, 0) }

// retire returns the data of an access whose latency has elapsed.
func (p *Partition) retire(r *mem.Request, hit uint64) {
	if p.trOn {
		// Emit before Complete, which may recycle r.
		p.tr.Emit(obs.Event{Name: "access", Cat: "dram", Ph: obs.PhaseSpan,
			Ts: r.T0, Dur: p.eng.Cycle() - r.T0, Tid: p.trTid,
			Arg1Name: "addr", Arg1: r.Addr, Arg2Name: "row_hit", Arg2: hit})
	}
	r.Complete(mem.LevelDRAM)
}
