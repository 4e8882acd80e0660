package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed calibration.
//
// The bench host is a shared 2-vCPU machine whose memory system is
// contended by its neighbours in phases that last minutes: measured over
// 25 minutes, a pure ALU loop held its time within 1% while a pointer
// chase through 16 MB, an allocating map loop and the simulator itself
// all slowed together by up to 40%. A phase that covers three of ten runs
// pushes the spread of every timing past any bound, and no statistic
// within a run can remove it, because the whole run is slow.
//
// So the parent times three fixed kernels of this file, in a child of
// their own so that no pass pays for them in memory or CPU time, before
// the first pass of a run and after every pass, and divides the run's
// host-time metrics by the median of those readings, the host factor. The
// quiet bench host reads about 1.2; a host that reads 1.5 runs the kernels
// 25% slower. The kernels are the harness's own and share no code with
// the simulator, so a change to the simulator moves a metric and not the
// factor, and parent and change are divided alike.
//
// Three choices came out of measurements in which every variant was
// computed from the same passes (BASELINE.md, ten seeds per workload):
//
//   - One factor per run, not one per pass: a single pass of the kernels
//     reads the host with a noise of its own of about 10%, as much as the
//     drift it is there to remove, and the phases outlast a run.
//   - A reading is the median of three passes of the kernels: the worst
//     quartile spread of sim_kips, cpu_s_per_minst and warm_ms over four
//     workloads was 20% undivided, 11% with one pass per reading, 8% with
//     three.
//   - The kernels run on as many threads at once as the children use (two
//     on the bench host). A neighbour that takes a whole vCPU hardly slows
//     one thread and stalls two; even the serial workloads, whose garbage
//     collector runs beside them, were steadier this way (mean spread
//     10.0% on one thread, 8.3% on two, undivided 24%).
//
// Raw time is host factor x reported time; each workload header prints
// the factor.

// The unit of a reading: the kernels' times on one thread of the quiet
// bench host. Two threads at once read about 1.2 there, so reported times
// are about a fifth shorter than that host's real ones; what matters is
// that they are the same fifth on every run.
const (
	refALU   = 21400 * time.Microsecond
	refChase = 45600 * time.Microsecond
	refAlloc = 18600 * time.Microsecond
)

// calibSink takes the kernels' results so that the compiler keeps them.
var calibSink atomic.Uint64

// calibALU is register-only arithmetic: it moves with clock speed and CPU
// steal, not with memory contention.
func calibALU() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	calibSink.Add(x)
	return d
}

// chaseSlots is the length of a chase ring: 4 Mi slots, 16 MB.
const chaseSlots = 4 << 20

// newChaseRing returns one cycle through chaseSlots slots: slot i holds
// the next slot of a full-period linear congruential sequence, so
// successive loads land far apart and each waits for the last. Rings with
// different (odd) increments walk different streams.
func newChaseRing(increment uint64) []uint32 {
	ring := make([]uint32, chaseSlots)
	for i := range ring {
		ring[i] = uint32((uint64(i)*1664525 + increment) % chaseSlots)
	}
	return ring
}

func calibChase(ring []uint32) time.Duration {
	t0 := time.Now()
	p := uint32(0)
	for i := 0; i < 600_000; i++ {
		p = ring[p]
	}
	d := time.Since(t0)
	calibSink.Add(uint64(p))
	return d
}

// calibAlloc is map lookups and small allocations: the runtime paths the
// simulator's modules lean on.
func calibAlloc() time.Duration {
	t0 := time.Now()
	m := map[uint64]*[4]uint64{}
	x := uint64(1)
	for i := 0; i < 300_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := x >> 48
		v := m[k]
		if v == nil {
			v = new([4]uint64)
			m[k] = v
		}
		v[i&3] += x
	}
	d := time.Since(t0)
	calibSink.Add(uint64(len(m)))
	return d
}

// calibReps is how many times a reading runs the kernels.
const calibReps = 3

// hostReading runs the three kernels calibReps times, each time on every
// thread at once, and returns the median over the repeats of the mean,
// over threads and kernels, of a kernel's time in units of its reference.
func hostReading() float64 {
	threads := min(runtime.GOMAXPROCS(0), 2)
	rings := make([][]uint32, threads)
	for t := range rings {
		rings[t] = newChaseRing(1013904223 + 2*uint64(t))
		calibChase(rings[t]) // touches the ring once, untimed
	}
	reps := make([]float64, calibReps)
	for i := range reps {
		ratios := make([]float64, threads)
		var wg sync.WaitGroup
		for t := range ratios {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ratios[t] = (float64(calibALU())/float64(refALU) +
					float64(calibChase(rings[t]))/float64(refChase) +
					float64(calibAlloc())/float64(refAlloc)) / 3
			}()
		}
		wg.Wait()
		for _, r := range ratios {
			reps[i] += r / float64(threads)
		}
	}
	return median(reps)
}
