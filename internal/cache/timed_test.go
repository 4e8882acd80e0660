package cache

import (
	"testing"
	"testing/quick"

	"swiftsim/internal/config"
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/obs"
)

// stubDown is a downstream port with fixed latency and optional refusal.
type stubDown struct {
	eng     *engine.Engine
	latency uint64
	refuse  bool
	reads   []*mem.Request
	writes  []*mem.Request
}

func (s *stubDown) Accept(r *mem.Request) bool {
	if s.refuse {
		return false
	}
	if r.Write {
		s.writes = append(s.writes, r)
		return true
	}
	s.reads = append(s.reads, r)
	s.eng.Schedule(s.latency, func() {
		r.Complete(mem.LevelDRAM)
	})
	return true
}

type harness struct {
	eng   *engine.Engine
	cache *Timed
	down  *stubDown
	g     *metrics.Gatherer
}

func newHarness(t *testing.T, cfg config.Cache) *harness {
	t.Helper()
	eng := engine.New()
	g := metrics.New()
	down := &stubDown{eng: eng, latency: 50}
	c := NewTimed("l1", cfg, mem.LevelL1, eng, down, g)
	eng.Register(c)
	return &harness{eng: eng, cache: c, down: down, g: g}
}

// access issues a read/write and runs the engine until it completes,
// returning the number of cycles elapsed.
func (h *harness) access(t *testing.T, addr uint64, write bool) uint64 {
	t.Helper()
	start := h.eng.Cycle()
	done := false
	r := &mem.Request{Addr: addr, Write: write, Size: 32, Done: func() { done = true }}
	if !h.cache.Accept(r) {
		t.Fatalf("Accept(%#x) rejected", addr)
	}
	if _, err := h.eng.Run(func() bool { return done }, start+100000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return h.eng.Cycle() - start
}

func TestTimedMissThenHitLatency(t *testing.T) {
	cfg := smallCache()
	h := newHarness(t, cfg)
	missLat := h.access(t, 0x1000, false)
	hitLat := h.access(t, 0x1000, false)
	if missLat <= hitLat {
		t.Errorf("miss latency %d not greater than hit latency %d", missLat, hitLat)
	}
	if missLat < h.down.latency {
		t.Errorf("miss latency %d below downstream latency %d", missLat, h.down.latency)
	}
	// Hit latency: 1 cycle queue + HitLatency completion.
	if hitLat < uint64(cfg.HitLatency) || hitLat > uint64(cfg.HitLatency)+3 {
		t.Errorf("hit latency = %d, want ≈%d", hitLat, cfg.HitLatency)
	}
	if h.g.Value("l1.hit") != 1 || h.g.Value("l1.miss") != 1 {
		t.Errorf("hit/miss = %d/%d, want 1/1", h.g.Value("l1.hit"), h.g.Value("l1.miss"))
	}
}

// TestTimedTraceSpans: a cache traced at RequestLevel records each request
// it retires as one span on its own track, from the cycle it accepted the
// request to the cycle it completed, named by the level that serviced it.
func TestTimedTraceSpans(t *testing.T) {
	h := newHarness(t, smallCache())
	ring := obs.NewRing(16)
	h.cache.SetTracer(obs.New(ring, obs.RequestLevel))
	missLat := h.access(t, 0x1000, false)
	hitLat := h.access(t, 0x1000, false)
	var got []obs.Event
	for _, ev := range ring.Events() {
		if ev.Ph == obs.PhaseSpan {
			got = append(got, ev)
		}
	}
	want := []struct {
		name string
		ts   uint64
		dur  uint64
	}{{mem.LevelDRAM.String(), 0, missLat}, {mem.LevelL1.String(), missLat, hitLat}}
	if len(got) != len(want) {
		t.Fatalf("%d spans, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if ev := got[i]; ev.Name != w.name || ev.Ts != w.ts || ev.Dur != w.dur || ev.Arg1 != 0x1000 || ev.Tid == 0 {
			t.Errorf("span %d = %+v, want %s at %d for %d cycles, addr 0x1000, on the cache's track", i, ev, w.name, w.ts, w.dur)
		}
	}
}

func TestTimedMSHRMergesConcurrentMisses(t *testing.T) {
	h := newHarness(t, smallCache())
	completed := 0
	for i := 0; i < 2; i++ {
		r := &mem.Request{Addr: 0x2000, Size: 32, Done: func() { completed++ }}
		if !h.cache.Accept(r) {
			t.Fatal("Accept rejected")
		}
	}
	if _, err := h.eng.Run(func() bool { return completed == 2 }, 100000); err != nil {
		t.Fatal(err)
	}
	if len(h.down.reads) != 1 {
		t.Errorf("downstream fetches = %d, want 1 (merged)", len(h.down.reads))
	}
	if h.g.Value("l1.mshr_merge") != 1 {
		t.Errorf("mshr_merge = %d, want 1", h.g.Value("l1.mshr_merge"))
	}
}

func TestTimedSectorMissFetchesSeparately(t *testing.T) {
	h := newHarness(t, smallCache())
	completed := 0
	for _, addr := range []uint64{0x2000, 0x2020} { // two sectors, one line
		r := &mem.Request{Addr: addr, Size: 32, Done: func() { completed++ }}
		if !h.cache.Accept(r) {
			t.Fatal("Accept rejected")
		}
	}
	if _, err := h.eng.Run(func() bool { return completed == 2 }, 100000); err != nil {
		t.Fatal(err)
	}
	if len(h.down.reads) != 2 {
		t.Errorf("downstream fetches = %d, want 2 (distinct sectors)", len(h.down.reads))
	}
}

func TestTimedMSHRCapacityStall(t *testing.T) {
	cfg := smallCache()
	cfg.MSHREntries = 1
	cfg.MSHRMaxMerge = 1
	h := newHarness(t, cfg)
	completed := 0
	// Two misses to different lines: the second must stall until the
	// first fill frees the only MSHR, but both eventually complete.
	for _, addr := range []uint64{0x0, 0x4000} {
		r := &mem.Request{Addr: addr, Size: 32, Done: func() { completed++ }}
		if !h.cache.Accept(r) {
			t.Fatal("Accept rejected")
		}
	}
	if _, err := h.eng.Run(func() bool { return completed == 2 }, 100000); err != nil {
		t.Fatal(err)
	}
	if h.g.Value("l1.mshr_stall") == 0 {
		t.Error("expected MSHR stall cycles")
	}
}

func TestTimedBankBackpressure(t *testing.T) {
	h := newHarness(t, smallCache())
	// Same bank every time: sector address stride of banks*sectorBytes.
	fill := func(round int) (accepted int) {
		for i := 0; i < bankQueueDepth+5; i++ {
			r := &mem.Request{Addr: uint64(round*100+i) * 64 * 2, Size: 32}
			if h.cache.Accept(r) {
				accepted++
			}
		}
		return accepted
	}
	if got := fill(0); got != bankQueueDepth {
		t.Errorf("accepted = %d, want %d", got, bankQueueDepth)
	}
	if got := h.g.Value("l1.bank_conflict"); got != 5 {
		t.Errorf("bank_conflict = %d, want 5 (requests %d.. refused)", got, bankQueueDepth+1)
	}
	// The bound holds with the ring's head mid-array: retire three
	// (Throughput is one a cycle) and offer a full round again.
	for cyc := uint64(0); cyc < 3; cyc++ {
		h.cache.Tick(cyc)
	}
	if got := fill(1); got != 3 {
		t.Errorf("accepted after draining 3 = %d, want 3", got)
	}
	if got := h.g.Value("l1.bank_conflict"); got != 5+bankQueueDepth+2 {
		t.Errorf("bank_conflict = %d, want %d", got, 5+bankQueueDepth+2)
	}
}

// TestTimedTickSendsQueuedMiss: a miss the down port refused stays queued,
// and the first Tick after the port accepts again sends it, with no other
// call.
func TestTimedTickSendsQueuedMiss(t *testing.T) {
	h := newHarness(t, smallCache())
	h.down.refuse = true
	if !h.cache.Accept(&mem.Request{Addr: 0x4000, Size: 32, Done: func() {}}) {
		t.Fatal("Accept rejected")
	}
	h.cache.Tick(0) // the miss is processed and queued
	h.cache.Tick(1) // the down port refuses it
	if len(h.down.reads) != 0 || h.cache.toDown.Len() != 1 {
		t.Fatalf("with the port refusing: %d sent, %d queued, want 0 and 1", len(h.down.reads), h.cache.toDown.Len())
	}
	h.down.refuse = false
	h.cache.Tick(2)
	if len(h.down.reads) != 1 || h.cache.toDown.Len() != 0 {
		t.Errorf("after the port accepts: %d sent, %d queued, want 1 and 0", len(h.down.reads), h.cache.toDown.Len())
	}
}

func TestTimedWriteThroughForwardsWrites(t *testing.T) {
	cfg := smallCache()
	cfg.WriteBack = false
	h := newHarness(t, cfg)
	h.access(t, 0x3000, true)
	if len(h.down.writes) != 1 {
		t.Fatalf("downstream writes = %d, want 1 (write-through)", len(h.down.writes))
	}
	if h.g.Value("l1.write") != 1 {
		t.Errorf("write counter = %d, want 1", h.g.Value("l1.write"))
	}
	// Write-through no-allocate: a subsequent read must miss.
	h.down.refuse = false
	if got := h.g.Value("l1.miss"); got != 1 {
		t.Errorf("write miss count = %d, want 1", got)
	}
}

func TestTimedWriteBackDirtyEviction(t *testing.T) {
	cfg := smallCache()
	cfg.WriteBack = true
	cfg.Ways = 1
	h := newHarness(t, cfg)
	stride := uint64(cfg.Sets * cfg.LineBytes)
	h.access(t, 0, true) // dirty line in set 0
	if len(h.down.writes) != 0 {
		t.Fatal("write-back cache forwarded a store downstream")
	}
	h.access(t, stride, false) // read miss evicts dirty line
	if len(h.down.writes) != 1 {
		t.Fatalf("downstream writes = %d, want 1 (dirty writeback)", len(h.down.writes))
	}
	if h.g.Value("l1.writeback") != 1 || h.g.Value("l1.eviction") != 1 {
		t.Errorf("writeback/eviction = %d/%d, want 1/1",
			h.g.Value("l1.writeback"), h.g.Value("l1.eviction"))
	}
}

func TestTimedServicedByPropagation(t *testing.T) {
	h := newHarness(t, smallCache())
	var lvl mem.Level
	done := false
	r := &mem.Request{Addr: 0x5000, Size: 32}
	r.Done = func() { lvl = r.ServicedBy; done = true }
	h.cache.Accept(r)
	if _, err := h.eng.Run(func() bool { return done }, 100000); err != nil {
		t.Fatal(err)
	}
	if lvl != mem.LevelDRAM {
		t.Errorf("miss ServicedBy = %v, want DRAM (stub)", lvl)
	}
	done = false
	r2 := &mem.Request{Addr: 0x5000, Size: 32}
	r2.Done = func() { lvl = r2.ServicedBy; done = true }
	h.cache.Accept(r2)
	if _, err := h.eng.Run(func() bool { return done }, 200000); err != nil {
		t.Fatal(err)
	}
	if lvl != mem.LevelL1 {
		t.Errorf("hit ServicedBy = %v, want L1", lvl)
	}
}

func TestTimedBusyLifecycle(t *testing.T) {
	h := newHarness(t, smallCache())
	if h.cache.Busy() {
		t.Fatal("fresh cache reports busy")
	}
	done := false
	r := &mem.Request{Addr: 0x100, Size: 32, Done: func() { done = true }}
	h.cache.Accept(r)
	if !h.cache.Busy() {
		t.Fatal("cache with queued request reports idle")
	}
	if _, err := h.eng.Run(func() bool { return done }, 100000); err != nil {
		t.Fatal(err)
	}
	if h.cache.Busy() {
		t.Error("cache busy after all requests completed")
	}
}

// TestQuickTimedMatchesFunctional: issuing reads one at a time, the timed
// cache's hit/miss counts must match the functional reference exactly for
// any address stream and any replacement policy.
func TestQuickTimedMatchesFunctional(t *testing.T) {
	f := func(seed int64, nRaw uint8, polRaw uint8) bool {
		n := 1 + int(nRaw)%100
		pol := config.Replacement(int(polRaw) % 3)
		cfg := smallCache()
		cfg.Replacement = pol

		ref := NewFunctional(cfg)
		h := newHarness(t, cfg)

		rng := newXorshift(uint64(seed)*2 + 1)
		for i := 0; i < n; i++ {
			addr := (rng.next() % 128) * 32 // 128 sectors
			refHit := ref.Access(addr, false)
			before := h.g.Value("l1.hit")
			h.access(t, addr, false)
			timedHit := h.g.Value("l1.hit") > before
			if refHit != timedHit {
				t.Logf("divergence at access %d addr %#x: ref=%v timed=%v", i, addr, refHit, timedHit)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

type xorshift struct{ s uint64 }

func newXorshift(seed uint64) *xorshift { return &xorshift{s: seed | 1} }
func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

// TestQuickMSHRConservation: every request added to an MSHR is released by
// fills exactly once.
func TestQuickMSHRConservation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw)%60
		m := newMSHR(8, 4)
		rng := newXorshift(uint64(seed)*2 + 1)
		added, released := 0, 0
		type pend struct {
			line   uint64
			sector uint
		}
		var pending []pend
		for i := 0; i < n; i++ {
			la := rng.next() % 4
			sec := uint(rng.next() % 4)
			switch m.add(la, sec, &mem.Request{}) {
			case mshrStall:
				// Drain one pending fill to make progress.
				if len(pending) > 0 {
					p := pending[0]
					pending = pending[1:]
					released += len(m.fill(p.line, p.sector))
				}
			case mshrNewEntry, mshrNewSector:
				added++
				pending = append(pending, pend{la, sec})
			case mshrMerged:
				added++
			}
		}
		for _, p := range pending {
			released += len(m.fill(p.line, p.sector))
		}
		return released == added && m.used() == 0 && m.pendingWaiters() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
