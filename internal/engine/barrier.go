// Low-overhead shard dispatch: the per-cycle worker handshake.
//
// PR 5 woke each shard worker with a channel send and joined them with a
// sync.WaitGroup — four scheduler round trips per shard per simulated
// cycle, which BENCH_PR8 showed dominating the parallel tick (threads=2
// ran ~10% slower than threads=1). This file replaces that handshake with
// a generation-published spin-then-park barrier over persistent workers:
//
//   - each shard owns a cache-line-padded shardSignal; the coordinator
//     publishes work by bumping sig.cmd (a generation counter) and the
//     worker waits for its next generation with a bounded spin before
//     parking on a buffered channel;
//   - completion is a single shared countdown (barDone): the last worker
//     to finish wakes the coordinator, which also spins briefly before
//     parking — on a multi-core host the common case is that nobody
//     parks and the whole barrier is a handful of uncontended atomics;
//   - the coordinator is itself a worker: it runs the first shard with
//     work inline while the others execute, so an n-shard cycle pays
//     n-1 publishes instead of n sends plus a WaitGroup;
//   - workers are started only when there is more than one shard and the
//     host can actually run them (GOMAXPROCS > 1). Otherwise an exact run
//     ticks serially (see beginRun) and a relaxed one runs its passes
//     inline on the coordinator.
//
// The park/unpark protocol is the standard flag-then-recheck pairing:
// the waiter sets its parked flag and re-reads the condition before
// blocking; the signaler updates the condition and then reads the flag.
// Under sequentially consistent atomics (sync/atomic) one of the two
// always observes the other, so wakeups cannot be lost. The wake
// channels hold one token and are sent with a non-blocking select, so a
// harmless stale token at worst causes one extra loop iteration.
package engine

import (
	"runtime"
	"sync/atomic"
)

// barrierSpin bounds the busy-wait before a waiter parks. The spin body
// is one atomic load, so this is on the order of a few microseconds —
// enough to cover the serial head/tail of a neighboring cycle without
// burning a core for long when the simulation goes quiet.
const barrierSpin = 4096

// shardSignal is the coordinator→worker mailbox for one shard. The
// leading and trailing pads keep the hot cmd word on its own cache line:
// every worker spins on its own signal, and false sharing between
// adjacent signals (or with coordinator-written engine state) would put
// that line in play on every publish.
type shardSignal struct {
	_      [64]byte
	cmd    atomic.Uint64 // published work generation
	parked atomic.Uint32 // worker is (about to be) blocked on wake
	wake   chan struct{} // unpark token, capacity 1
	_      [64]byte
}

// publish hands the shard's worker its next generation of work and
// unparks it if it gave up spinning.
func (sig *shardSignal) publish() {
	sig.cmd.Add(1)
	if sig.parked.Load() != 0 {
		select {
		case sig.wake <- struct{}{}:
		default:
		}
	}
}

// await blocks until generation gen has been published: spin first, then
// park. The re-check loop after setting parked closes the lost-wakeup
// window and absorbs stale tokens from earlier generations.
func (sig *shardSignal) await(gen uint64, spin int) {
	for i := 0; i < spin; i++ {
		if sig.cmd.Load() >= gen {
			return
		}
	}
	sig.parked.Store(1)
	for sig.cmd.Load() < gen {
		<-sig.wake
	}
	sig.parked.Store(0)
}

// workerLoop is a shard's persistent worker: one goroutine per shard for
// the lifetime of a run (startWorkers..stopWorkers), not one handshake
// per cycle. gen snapshots the shard's current generation at spawn so a
// later run can restart workers without resetting the counters.
func (sc *shardCtx) workerLoop(gen uint64) {
	e := sc.e
	for {
		gen++
		sc.sig.await(gen, e.spinCount)
		if e.workerStop.Load() {
			e.workerWG.Done()
			return
		}
		sc.safePass()
		e.finishPass()
	}
}

// finishPass counts one shard pass done; the last finisher unparks the
// coordinator if it stopped spinning.
func (e *Engine) finishPass() {
	if e.barDone.Add(-1) == 0 {
		if e.coordParked.Load() != 0 {
			select {
			case e.coordWake <- struct{}{}:
			default:
			}
		}
	}
}

// awaitShards blocks the coordinator until every dispatched shard has
// finished its pass: the worker-side await mirrored onto barDone.
func (e *Engine) awaitShards() {
	for i := 0; i < e.spinCount; i++ {
		if e.barDone.Load() == 0 {
			return
		}
	}
	e.coordParked.Store(1)
	for e.barDone.Load() != 0 {
		<-e.coordWake
	}
	e.coordParked.Store(0)
}

// startWorkers spawns the persistent shard workers. With a single shard,
// or on a host without spare parallelism (GOMAXPROCS == 1), it spawns none,
// avoiding pure-overhead goroutine switching. forceWorkers (tests and the
// sharded-tick benchmark) overrides both checks so the concurrent path
// stays exercised on single-proc machines.
func (e *Engine) startWorkers() {
	if e.workersUp {
		return
	}
	procs := runtime.GOMAXPROCS(0)
	if (procs <= 1 || len(e.shards) < 2) && !e.forceWorkers {
		return
	}
	e.spinCount = 0
	if procs > 1 {
		// With only one proc a spinning waiter just steals the core the
		// work needs; park immediately instead.
		e.spinCount = barrierSpin
	}
	e.workersUp = true
	e.workerStop.Store(false)
	e.workerWG.Add(len(e.shards))
	for _, sc := range e.shards {
		go sc.workerLoop(sc.sig.cmd.Load())
	}
}

// stopWorkers retires the persistent workers: publish one generation to
// each with the stop flag up, then join. Generation counters keep their
// values, so a later startWorkers (next kernel's RunCtx) resumes cleanly.
func (e *Engine) stopWorkers() {
	if !e.workersUp {
		return
	}
	e.workersUp = false
	e.workerStop.Store(true)
	for _, sc := range e.shards {
		sc.sig.publish()
	}
	e.workerWG.Wait()
}

// dispatchShards runs every shard whose pass list is non-empty, with k
// local cycles per shard. The coordinator takes the first such shard
// inline — it would otherwise only wait — and the remaining shards run on
// their workers. With a single busy shard, or no workers, every pass runs
// inline on the coordinator; the staging discipline is identical either
// way, which is what keeps results byte-identical across hosts and thread
// counts.
func (e *Engine) dispatchShards(k int) {
	nWork := 0
	for _, sc := range e.shards {
		if len(sc.list) > 0 {
			nWork++
			sc.k = k
			sc.staging = true
		}
	}
	if nWork == 0 {
		return
	}
	// From here on "has work" is the staging flag, not the list length — a
	// relaxed pass may drain its list to empty mid-epoch.
	if nWork == 1 || !e.workersUp {
		for _, sc := range e.shards {
			if sc.staging {
				sc.safePass()
			}
		}
	} else {
		var own *shardCtx
		e.barDone.Store(int32(nWork - 1))
		for _, sc := range e.shards {
			if !sc.staging {
				continue
			}
			if own == nil {
				own = sc
				continue
			}
			sc.sig.publish()
		}
		own.safePass()
		e.awaitShards()
	}
	for _, sc := range e.shards {
		sc.staging = false
	}
	for _, sc := range e.shards {
		if sc.panicVal != nil {
			v, st := sc.panicVal, sc.panicStack
			sc.panicVal, sc.panicStack = nil, nil
			panic(&ShardPanic{Shard: sc.shard, Value: v, Stack: st})
		}
	}
}
