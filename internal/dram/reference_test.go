package dram

import (
	"fmt"
	"math/rand"
	"testing"

	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
)

// refPartition is the partition as it was before it decoded requests at
// Accept and slept on a blocked window: it keeps the requests themselves,
// and every tick divides each window entry's address into a bank and a row
// and scans the window. It serves as the oracle of TestPartitionMatchesReference.
type refPartition struct {
	eng                 *engine.Engine
	wake                func()
	banks               int
	latency, rowHitLat  uint64
	queue               []*mem.Request
	bankFreeAt, openRow []uint64
	rowOpen             []bool
	hits, misses        int
	log                 []string
}

func newRef(eng *engine.Engine, banks, latency, rowHitLatency int) *refPartition {
	return &refPartition{eng: eng, banks: banks, latency: uint64(latency), rowHitLat: uint64(rowHitLatency),
		bankFreeAt: make([]uint64, banks), openRow: make([]uint64, banks), rowOpen: make([]bool, banks)}
}

func (p *refPartition) Name() string             { return "ref" }
func (p *refPartition) Kind() engine.ModelKind   { return engine.CycleAccurate }
func (p *refPartition) Busy() bool               { return len(p.queue) > 0 }
func (p *refPartition) SetWake(wake func())      { p.wake = wake }
func (p *refPartition) bankOf(addr uint64) int   { return int((addr / rowBytes) % uint64(p.banks)) }
func (p *refPartition) rowOf(addr uint64) uint64 { return addr / rowBytes / uint64(p.banks) }

func (p *refPartition) accept(r *mem.Request) bool {
	if len(p.queue) >= queueCap {
		return false
	}
	p.queue = append(p.queue, r)
	p.wake()
	return true
}

func (p *refPartition) Tick(cycle uint64) {
	for {
		idx := p.pick(cycle)
		if idx < 0 {
			return
		}
		r := p.queue[idx]
		p.queue = append(p.queue[:idx], p.queue[idx+1:]...)
		b, row := p.bankOf(r.Addr), p.rowOf(r.Addr)
		hit := p.rowOpen[b] && p.openRow[b] == row
		lat, busy := p.latency, uint64(bankBusyRowMiss)
		if hit {
			p.hits++
			lat, busy = p.rowHitLat, bankBusyRowHit
		} else {
			p.misses++
		}
		p.rowOpen[b], p.openRow[b], p.bankFreeAt[b] = true, row, cycle+busy
		p.eng.Schedule(lat, func() { p.log = append(p.log, fmt.Sprintf("%d:%#x", p.eng.Cycle(), r.Addr)) })
	}
}

func (p *refPartition) pick(cycle uint64) int {
	window := min(len(p.queue), frfcfsWindow)
	oldest := -1
	for i := 0; i < window; i++ {
		r := p.queue[i]
		b := p.bankOf(r.Addr)
		if p.bankFreeAt[b] > cycle {
			continue
		}
		if p.rowOpen[b] && p.openRow[b] == p.rowOf(r.Addr) {
			return i
		}
		if oldest < 0 {
			oldest = i
		}
	}
	return oldest
}

// TestPartitionMatchesReference replays seeded random arrival streams, in
// bursts that fill the queue past its cap and gaps that let it drain, into
// a partition and into the reference beside it in one engine. Every
// request must be accepted or refused alike and complete at the same
// cycle, in the same order, with the same row hits and misses.
func TestPartitionMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		banks := 1 + rng.Intn(8)
		eng := engine.New()
		g := metrics.New()
		p := New("dram0", eng, banks, 100+rng.Intn(200), 20+rng.Intn(80), g)
		ref := newRef(eng, banks, int(p.latency), int(p.rowHitLat))
		eng.Register(p)
		eng.Register(ref)
		var got []string
		var refused int
		// Addresses over a few rows of every bank, so row hits, misses and
		// bank conflicts all occur.
		span := uint64(banks) * rowBytes * uint64(1+rng.Intn(4))
		for c := uint64(1); c < 3000; c++ {
			if rng.Intn(4) != 0 {
				continue
			}
			n := rng.Intn(4)
			if rng.Intn(50) == 0 {
				n = queueCap + 8 // a burst past the cap
			}
			eng.Schedule(c, func() {
				for range n {
					addr := uint64(rng.Int63n(int64(span))) &^ 31
					r := &mem.Request{Addr: addr, Size: 32}
					r.Done = func() { got = append(got, fmt.Sprintf("%d:%#x", eng.Cycle(), addr)) }
					a, b := p.Accept(r), ref.accept(&mem.Request{Addr: addr, Size: 32})
					if a != b {
						t.Fatalf("seed %d cycle %d: partition accepted %v, reference %v", seed, eng.Cycle(), a, b)
					}
					if !a {
						refused++
					}
				}
			})
		}
		if _, err := eng.Run(func() bool { return eng.Cycle() > 3000 && !p.Busy() && !ref.Busy() && len(got) == len(ref.log) }, 1_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(ref.log) {
			t.Fatalf("seed %d: completions differ:\n got %v\nwant %v", seed, got, ref.log)
		}
		if h, m := g.Value("dram0.row_hit"), g.Value("dram0.row_miss"); h != uint64(ref.hits) || m != uint64(ref.misses) {
			t.Fatalf("seed %d: row hits/misses %d/%d, reference %d/%d", seed, h, m, ref.hits, ref.misses)
		}
		if seed == 1 {
			t.Logf("seed 1: %d completions, %d refused, %d row hits", len(got), refused, ref.hits)
		}
	}
}
