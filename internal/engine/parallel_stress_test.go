package engine

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
)

// These stress tests exist to be run under -race (`make tier1` does): they
// drive the spin-then-park barrier and the staged-event arenas through the
// schedules most likely to expose a synchronization hole — more runnable
// goroutines than shards, shards with wildly uneven work, shards that
// drain to idle mid-epoch, and shards that panic while their siblings are
// mid-pass. Determinism is asserted throughout: any schedule-dependent
// divergence is a correctness bug even when the race detector stays quiet.

// stressGOMAXPROCS raises GOMAXPROCS above every shard count used here, so
// workers, the coordinator and the runtime all contend for cores at once —
// the regime where a lost wakeup or a missed happens-before edge actually
// reorders memory. Restored via the returned func.
func stressGOMAXPROCS() func() {
	prev := runtime.GOMAXPROCS(0)
	if prev >= 8 {
		return func() {}
	}
	runtime.GOMAXPROCS(8)
	return func() { runtime.GOMAXPROCS(prev) }
}

// TestBarrierStressRandomImbalance: runs with randomized per-SM work and
// event budgets — shards finish their passes at very different times, so
// fast shards hit the barrier and park (or spin) while slow ones still
// stage — over the whole (shards, k, workers) matrix of the one cycle
// routine. At k = 1 every cell, including a single shard registered
// through RegisterSharded, must match a plain-Register serial engine's
// history exactly. At k > 1 there is no serial equivalent; the schedule is
// a function of (assembly, k) alone, so every shard count and worker mode
// must agree with the first cell. "inline" cells run at GOMAXPROCS = 1
// without forced workers: the exact ones take the serial tick, the relaxed
// ones run their passes on the coordinator.
func TestBarrierStressRandomImbalance(t *testing.T) {
	// 12 is a multiple of every shard count below, so siblings (sm[i] wakes
	// sm[i+12]) share a shard in every cell and all cells model one system.
	const nSMs, sibStep = 24, 12
	horizon := uint64(500)
	seeds := uint64(4)
	if testing.Short() {
		horizon, seeds = 200, 2
	}
	build := func(seed uint64, nShards, k int, forced bool) *parallelFixture {
		f := newParallelFixture(nSMs, nShards, sibStep)
		f.e.forceWorkers = forced
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		for _, sm := range f.sms {
			sm.work = rng.IntN(6) // zero = starts idle, woken later
			sm.budget = rng.IntN(12)
		}
		if k > 1 {
			f.relax(k)
		}
		f.run(t, horizon)
		return f
	}
	// want[seed][k]: the serial history at k = 1, the first cell's otherwise.
	want := map[[2]uint64]string{}
	for seed := uint64(1); seed <= seeds; seed++ {
		want[[2]uint64{seed, 1}] = build(seed, 0, 1, false).history()
	}
	for _, forced := range []bool{true, false} {
		procs := 8 // more than any shard count, as stressGOMAXPROCS
		if !forced {
			procs = 1
		}
		prev := runtime.GOMAXPROCS(procs)
		for seed := uint64(1); seed <= seeds; seed++ {
			for _, k := range []int{1, 2, 8} {
				for _, nShards := range []int{1, 2, 3, 4} {
					got := build(seed, nShards, k, forced).history()
					key := [2]uint64{seed, uint64(k)}
					if _, ok := want[key]; !ok {
						want[key] = got
					}
					if got != want[key] {
						t.Errorf("seed=%d shards=%d k=%d forced=%v diverged:\n--- want ---\n%s--- got ---\n%s",
							seed, nShards, k, forced, want[key], got)
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestBarrierStressPanicInShard: a module panicking at an arbitrary point
// in an arbitrary shard — including while every other shard is busy inside
// the same barrier generation — must surface as exactly one *ShardPanic on
// the run goroutine, naming the faulting shard, and the engine's worker
// teardown (RunCtx's deferred stopWorkers) must not deadlock against
// workers parked mid-generation.
func TestBarrierStressPanicInShard(t *testing.T) {
	defer stressGOMAXPROCS()()
	const nShards = 4
	for _, tc := range []struct{ shard, atTick int }{
		{0, 1}, {1, 7}, {2, 25}, {3, 2},
	} {
		t.Run(fmt.Sprintf("shard=%d/tick=%d", tc.shard, tc.atTick), func(t *testing.T) {
			e := New()
			e.SetParallel(nShards)
			e.forceWorkers = true
			e.Register(&wakeTicker{name: "head"})
			var sharded []*wakeTicker
			for i := 0; i < nShards*2; i++ {
				w := &wakeTicker{name: fmt.Sprintf("w%d", i), work: 200}
				sharded = append(sharded, w)
				e.RegisterSharded(w, i%nShards)
			}
			boom := sharded[tc.shard]
			boom.onTick = func(cycle uint64) {
				if boom.ticks == tc.atTick {
					panic("stress fault")
				}
			}
			defer func() {
				sp, ok := recover().(*ShardPanic)
				if !ok {
					t.Fatalf("recovered %T, want *ShardPanic", sp)
				}
				if sp.Shard != tc.shard {
					t.Errorf("ShardPanic.Shard = %d, want %d", sp.Shard, tc.shard)
				}
			}()
			done := false
			e.Schedule(500, func() { done = true })
			_, _ = e.Run(func() bool { return done }, 0)
			t.Error("run completed despite injected panic")
		})
	}
}

// TestEpochStressCatchUpAndDrain pins the epoch/catch-up interaction under
// load: shards whose lists drain to empty mid-epoch (their staging window
// must close cleanly), serial modules woken by deferred notifications at
// the epoch barrier (their catch-up cycles run batched event wakes), and
// shard entries re-woken by completion events during those catch-up
// windows. Relaxed mode has no serial-history equivalent, so the oracle is
// determinism: repeated runs of the identical assembly must agree exactly.
func TestEpochStressCatchUpAndDrain(t *testing.T) {
	defer stressGOMAXPROCS()()
	const nSMs, nShards = 12, 3
	build := func() *parallelFixture {
		f := newParallelFixture(nSMs, nShards, nShards)
		rng := rand.New(rand.NewPCG(7, 11))
		for _, sm := range f.sms {
			sm.work = rng.IntN(4) // shallow: most shards drain mid-epoch
			sm.budget = rng.IntN(10)
		}
		f.relax(8)
		return f
	}
	first := build()
	first.run(t, 600)
	want := first.history()
	if len(first.coll.tickLog) == 0 {
		t.Fatal("collector never ticked — the catch-up path was not exercised")
	}
	for i := 0; i < 3; i++ {
		f := build()
		f.run(t, 600)
		if got := f.history(); got != want {
			t.Errorf("epoch rerun %d diverged (relaxed mode must be deterministic):\n--- first ---\n%s--- rerun ---\n%s",
				i, want, got)
		}
	}
}
