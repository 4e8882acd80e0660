package dram

import (
	"testing"

	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
)

func setup(banks, latency, rowHitLatency int) (*engine.Engine, *Partition, *metrics.Gatherer) {
	eng := engine.New()
	g := metrics.New()
	p := New("dram0", eng, banks, latency, rowHitLatency, g)
	eng.Register(p)
	return eng, p, g
}

func run(t *testing.T, eng *engine.Engine, done *int, want int) uint64 {
	t.Helper()
	cyc, err := eng.Run(func() bool { return *done == want }, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return cyc
}

func TestFirstAccessIsRowMiss(t *testing.T) {
	eng, p, g := setup(4, 227, 100)
	done := 0
	r := &mem.Request{Addr: 0x1000, Size: 32, Done: func() { done++ }}
	p.Accept(r)
	cyc := run(t, eng, &done, 1)
	if cyc < 227 {
		t.Errorf("row-miss latency = %d, want >= 227", cyc)
	}
	if g.Value("dram0.row_miss") != 1 || g.Value("dram0.row_hit") != 0 {
		t.Errorf("row hit/miss = %d/%d", g.Value("dram0.row_hit"), g.Value("dram0.row_miss"))
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	eng, p, g := setup(4, 227, 100)
	done := 0
	p.Accept(&mem.Request{Addr: 0x100, Size: 32, Done: func() { done++ }})
	run(t, eng, &done, 1)
	start := eng.Cycle()
	p.Accept(&mem.Request{Addr: 0x120, Size: 32, Done: func() { done++ }}) // same row
	run(t, eng, &done, 2)
	hitLat := eng.Cycle() - start
	if hitLat > 110 {
		t.Errorf("row-hit latency = %d, want about 100", hitLat)
	}
	if g.Value("dram0.row_hit") != 1 {
		t.Errorf("row_hit = %d, want 1", g.Value("dram0.row_hit"))
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	eng, p, g := setup(1, 227, 100)
	done := 0
	// Open row A, then enqueue: [row B (miss), row A (hit)]. The
	// scheduler should service the row-A request first.
	p.Accept(&mem.Request{Addr: 0, Size: 32, Done: func() { done++ }}) // row 0
	run(t, eng, &done, 1)

	var order []uint64
	mk := func(addr uint64) *mem.Request {
		return &mem.Request{Addr: addr, Size: 32, Done: func() { order = append(order, addr); done++ }}
	}
	p.Accept(mk(rowBytes * 5)) // different row: miss
	p.Accept(mk(64))           // open row: hit
	run(t, eng, &done, 3)
	if len(order) != 2 || order[0] != 64 {
		t.Errorf("service order = %v, want row-hit (64) first", order)
	}
	if g.Value("dram0.row_hit") != 1 {
		t.Errorf("row_hit = %d, want 1", g.Value("dram0.row_hit"))
	}
}

func TestBankParallelism(t *testing.T) {
	// Requests to different banks overlap; to one bank they serialize.
	measure := func(sameBank bool) uint64 {
		eng, p, _ := setup(4, 200, 200)
		done := 0
		for i := 0; i < 4; i++ {
			addr := uint64(i) * rowBytes // bank i
			if sameBank {
				addr = uint64(i) * rowBytes * 4 // all bank 0, distinct rows
			}
			p.Accept(&mem.Request{Addr: addr, Size: 32, Done: func() { done++ }})
		}
		return run(t, eng, &done, 4)
	}
	spread, serial := measure(false), measure(true)
	if serial <= spread {
		t.Errorf("same-bank (%d cycles) not slower than spread banks (%d cycles)", serial, spread)
	}
}

func TestQueueBackpressure(t *testing.T) {
	_, p, g := setup(1, 100, 100)
	accepted := 0
	for i := 0; i < queueCap+10; i++ {
		if p.Accept(&mem.Request{Addr: uint64(i) * 32, Size: 32}) {
			accepted++
		}
	}
	if accepted != queueCap {
		t.Errorf("accepted = %d, want %d", accepted, queueCap)
	}
	if got := g.Value("dram0.stall"); got != 10 {
		t.Errorf("dram0.stall = %d, want 10 (requests %d.. refused)", got, queueCap+1)
	}
}

func TestReadWriteCounters(t *testing.T) {
	eng, p, g := setup(2, 50, 50)
	done := 0
	p.Accept(&mem.Request{Addr: 0, Size: 32, Done: func() { done++ }})
	p.Accept(&mem.Request{Addr: 4096, Write: true, Size: 32})
	run(t, eng, &done, 1)
	// Let the write drain too.
	if _, err := eng.Run(func() bool { return !p.Busy() }, 100000); err != nil {
		t.Fatal(err)
	}
	if g.Value("dram0.read") != 1 || g.Value("dram0.write") != 1 {
		t.Errorf("read/write = %d/%d, want 1/1", g.Value("dram0.read"), g.Value("dram0.write"))
	}
}

func TestRowHitLatencyClamped(t *testing.T) {
	// rowHitLatency > latency gets clamped to latency.
	_, p, _ := setup(1, 100, 500)
	if p.rowHitLat != 100 {
		t.Errorf("rowHitLat = %d, want clamped to 100", p.rowHitLat)
	}
	// Zero row-hit latency also falls back to full latency.
	_, p2, _ := setup(1, 100, 0)
	if p2.rowHitLat != 100 {
		t.Errorf("rowHitLat = %d, want 100", p2.rowHitLat)
	}
}

func TestAllRequestsComplete(t *testing.T) {
	eng, p, _ := setup(4, 100, 40)
	const n = 200
	done := 0
	issued := 0
	feeder := func() {}
	feeder = func() {
		for issued < n {
			r := &mem.Request{Addr: uint64(issued*1024) % (1 << 20), Size: 32, Done: func() { done++ }}
			if !p.Accept(r) {
				break
			}
			issued++
		}
		if issued < n {
			eng.Schedule(10, feeder)
		}
	}
	feeder()
	if _, err := eng.Run(func() bool { return done == n }, 10_000_000); err != nil {
		t.Fatalf("run: %v (completed %d/%d)", err, done, n)
	}
}
