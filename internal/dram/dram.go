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
	wake       func() // engine activation callback
	banks      int
	latency    uint64 // row-miss (full) access latency
	rowHitLat  uint64
	queue      []queued
	bankFreeAt []uint64
	openRow    []uint64
	rowOpen    []bool
	// blockedUntil is the earliest cycle a bank of the scheduling window
	// frees, recorded when a tick found nothing to issue: until then no
	// tick can issue, unless an Accept lands inside the window, which
	// clears it. It is derived, not state: a restore leaves it 0.
	blockedUntil uint64

	reads     *metrics.Counter
	writes    *metrics.Counter
	rowHits   *metrics.Counter
	rowMisses *metrics.Counter
	stalls    *metrics.Counter

	tr    *obs.Tracer
	trTid int32
	trOn  bool
}

// queued is a request waiting for its bank, decoded once at Accept.
type queued struct {
	r    *mem.Request
	bank int
	row  uint64
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
// access latencies in core cycles. It is NewPartitions' batch of one.
func New(name string, eng *engine.Engine, banks int, latency, rowHitLatency int, g *metrics.Gatherer) *Partition {
	return NewPartitions(1, name, eng, banks, latency, rowHitLatency, g)[0]
}

// NewPartitions constructs n partitions of one class as New does. The
// partitions, their bank arrays and their queues (queueCap deep) are carved
// from one slice each and their counters resolved once, so building the
// class costs the same few allocations at any n.
func NewPartitions(n int, name string, eng *engine.Engine, banks int, latency, rowHitLatency int, g *metrics.Gatherer) []*Partition {
	if rowHitLatency <= 0 || rowHitLatency > latency {
		rowHitLatency = latency
	}
	proto := Partition{
		name:      name,
		eng:       eng,
		banks:     banks,
		latency:   uint64(latency),
		rowHitLat: uint64(rowHitLatency),
		reads:     g.Counter(name + ".read"),
		writes:    g.Counter(name + ".write"),
		rowHits:   g.Counter(name + ".row_hit"),
		rowMisses: g.Counter(name + ".row_miss"),
		stalls:    g.Counter(name + ".stall"),
	}
	parts := make([]Partition, n)
	ptrs := make([]*Partition, n)
	words := make([]uint64, 2*n*banks)
	open := make([]bool, n*banks)
	queues := make([]queued, n*queueCap)
	for i := range parts {
		p := &parts[i]
		*p = proto
		p.bankFreeAt, p.openRow, words = words[:banks:banks], words[banks:2*banks:2*banks], words[2*banks:]
		p.rowOpen, open = open[:banks:banks], open[banks:]
		p.queue, queues = queues[:0:queueCap], queues[queueCap:]
		ptrs[i] = p
	}
	return ptrs
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
	if len(p.queue) < frfcfsWindow {
		p.blockedUntil = 0
	}
	p.queue = append(p.queue, p.decode(r))
	if p.trOn {
		r.T0 = p.eng.Cycle()
	}
	p.wake()
	return true
}

// decode maps r's address to its bank and row.
func (p *Partition) decode(r *mem.Request) queued {
	page := r.Addr / rowBytes
	return queued{r: r, bank: int(page % uint64(p.banks)), row: page / uint64(p.banks)}
}

// Tick implements engine.Ticker: issue as many queued requests as have a
// free bank, preferring row hits within the scheduling window (FR-FCFS).
func (p *Partition) Tick(cycle uint64) {
	if cycle < p.blockedUntil {
		return
	}
	for {
		idx := p.pick(cycle)
		if idx < 0 {
			return
		}
		q := p.queue[idx]
		p.queue = append(p.queue[:idx], p.queue[idx+1:]...)
		p.service(cycle, q)
	}
}

// pick returns the queue index of the next request to service, or -1.
// Row hits within the window win over older row misses; otherwise the
// oldest request with a free bank is chosen. Finding none, it records when
// the window's first bank frees.
func (p *Partition) pick(cycle uint64) int {
	window := p.queue[:min(len(p.queue), frfcfsWindow)]
	oldest := -1
	freeAt := ^uint64(0)
	for i := range window {
		q := &window[i]
		if at := p.bankFreeAt[q.bank]; at > cycle {
			freeAt = min(freeAt, at)
			continue
		}
		if p.rowOpen[q.bank] && p.openRow[q.bank] == q.row {
			return i // row hit wins immediately
		}
		if oldest < 0 {
			oldest = i
		}
	}
	if oldest < 0 && len(window) > 0 {
		p.blockedUntil = freeAt
	}
	return oldest
}

func (p *Partition) service(cycle uint64, q queued) {
	r, b, row := q.r, q.bank, q.row
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
		p.eng.ScheduleRetirement(lat, r.Retirement((*rowHit)(p), mem.LevelDRAM))
	} else {
		p.eng.ScheduleRetirement(lat, r.Retirement((*rowMiss)(p), mem.LevelDRAM))
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

// Stages implements engine.Stager: a checkpoint names a pending access by
// its place in this list.
func (p *Partition) Stages() []mem.Stage { return []mem.Stage{(*rowMiss)(p), (*rowHit)(p)} }

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
