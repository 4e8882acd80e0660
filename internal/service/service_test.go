package service

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/sim"
	"swiftsim/internal/workload"
)

// smallSpec is a fast one-job sweep (memory simulator at a small scale).
func smallSpec() Spec {
	return Spec{Apps: []string{"BFS"}, GPUs: []string{"RTX2080Ti"}, Sims: []string{"memory"}, Scale: 0.1}
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s
}

// waitDone follows a sweep's event stream to completion.
func waitDone(t *testing.T, sw *Sweep) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	from := 0
	for {
		evs, done, err := sw.WaitEvents(ctx, from)
		if err != nil {
			t.Fatalf("sweep %s did not finish: %v", sw.ID(), err)
		}
		from += len(evs)
		if done {
			return
		}
	}
}

// TestEndToEndCacheHit is the acceptance scenario: two identical
// submissions, the second served entirely from the persistent cache with
// byte-identical canonical results and a matching hit counter.
func TestEndToEndCacheHit(t *testing.T) {
	s := newService(t, Config{})
	spec := Spec{Apps: []string{"BFS", "SM"}, GPUs: []string{"RTX2080Ti"}, Sims: []string{"memory"}, Scale: 0.1}

	sw1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sw1)
	st1 := sw1.Status()
	if st1.Failed != 0 || st1.Ok != 2 {
		t.Fatalf("first sweep: %+v", st1)
	}
	if st1.Cached != 0 {
		t.Fatalf("first sweep claims %d cached jobs on a cold cache", st1.Cached)
	}
	res1, err := sw1.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(res1, []byte("swiftsim-canonical 1")) || !bytes.Contains(res1, []byte("app BFS")) {
		t.Fatalf("results not canonical:\n%s", res1)
	}

	sw2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sw2)
	st2 := sw2.Status()
	if st2.Cached != st2.Total || st2.Ok != 2 {
		t.Fatalf("second sweep not fully cached: %+v", st2)
	}
	res2, err := sw2.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res1, res2) {
		t.Error("cached results are not byte-identical to the first run")
	}
	if stats := s.Stats(); stats.Cache.Hits < 2 || stats.Cache.Misses != 2 {
		t.Errorf("cache stats = %+v, want >=2 hits and exactly 2 misses", stats.Cache)
	}
}

// TestCacheSurvivesRestart: a new Service on the same cache directory
// serves a previous instance's results without simulating.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newService(t, Config{CacheDir: dir})
	sw1, err := s1.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sw1)
	res1, err := sw1.Results()
	if err != nil || len(res1) == 0 {
		t.Fatalf("first run results: %v (%d bytes)", err, len(res1))
	}

	s2 := newService(t, Config{CacheDir: dir})
	sw2, err := s2.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sw2)
	st := sw2.Status()
	if st.Cached != st.Total {
		t.Fatalf("restarted service did not hit the disk cache: %+v", st)
	}
	res2, _ := sw2.Results()
	if !bytes.Equal(res1, res2) {
		t.Error("results differ across a restart")
	}
}

// TestShedding is the acceptance scenario for admission control: with the
// single worker held on an in-flight sweep, a submission exceeding the
// job budget is rejected immediately, a fitting one is queued, and after
// the in-flight work completes the shed submission is accepted.
func TestShedding(t *testing.T) {
	s := newService(t, Config{QueueDepth: 2})
	release := make(chan struct{})
	s.execHook = func(*Sweep) { <-release }

	swA, err := s.Submit(smallSpec()) // 1 job, occupies the worker
	if err != nil {
		t.Fatal(err)
	}
	big := smallSpec()
	big.Apps = []string{"BFS", "SM"} // 2 jobs: 1 pending + 2 > depth 2
	if _, err := s.Submit(big); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized submission: err = %v, want ErrQueueFull", err)
	}
	small2 := smallSpec()
	small2.Apps = []string{"SM"} // 1 job: fits exactly
	swC, err := s.Submit(small2)
	if err != nil {
		t.Fatalf("fitting submission rejected: %v", err)
	}
	if stats := s.Stats(); stats.Shed != 1 || stats.PendingJobs != 2 {
		t.Errorf("stats = %+v, want 1 shed / 2 pending", stats)
	}

	// The hook stays installed: once release is closed it returns
	// immediately (resetting it here would race with the worker's read).
	close(release)
	waitDone(t, swA)
	waitDone(t, swC)
	for _, sw := range []*Sweep{swA, swC} {
		if st := sw.Status(); st.Failed != 0 {
			t.Errorf("sweep %s failed under shedding pressure: %+v", sw.ID(), st)
		}
	}

	swB, err := s.Submit(big)
	if err != nil {
		t.Fatalf("resubmission after drain rejected: %v", err)
	}
	waitDone(t, swB)
	if st := swB.Status(); st.Failed != 0 {
		t.Errorf("resubmitted sweep failed: %+v", st)
	}
}

// TestGracefulDrain: Close rejects new work, finishes what was queued,
// and returns nil when everything drained in time.
func TestGracefulDrain(t *testing.T) {
	cfg := Config{CacheDir: t.TempDir()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := sw.Status(); !st.Done || st.Ok != 1 {
		t.Errorf("queued sweep not drained: %+v", st)
	}
	if _, err := s.Submit(smallSpec()); !errors.Is(err, ErrDraining) {
		t.Errorf("post-Close submission: err = %v, want ErrDraining", err)
	}
}

// TestHardDrain: when the drain deadline expires, in-flight work is
// hard-canceled — the sweep still completes (every job reaches a terminal
// state) and Close reports the deadline.
func TestHardDrain(t *testing.T) {
	cfg := Config{CacheDir: t.TempDir()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.execHook = func(*Sweep) { <-s.ctx.Done() } // wedge until hard cancel
	sw, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want DeadlineExceeded", err)
	}
	st := sw.Status()
	if !st.Done {
		t.Fatal("hard-canceled sweep never completed")
	}
	for _, j := range st.Jobs {
		if j.State != StateSkipped && j.State != StateFailed {
			t.Errorf("job %s/%s state = %s, want skipped or failed", j.App, j.Sim, j.State)
		}
	}
}

// TestFailFastSkippedJobs is the race-detector satellite: a FailFast
// sweep with an unmeetable per-job deadline drives the start and finish relays and
// skipped jobs through the service queue. Every job must reach exactly
// one terminal state and never-started jobs must be reported skipped.
func TestFailFastSkippedJobs(t *testing.T) {
	s := newService(t, Config{Threads: 2})
	spec := Spec{
		Apps:  []string{"BFS", "SM", "GEMM", "LU"},
		GPUs:  []string{"RTX2080Ti", "RTX3060", "RTX3090"},
		Sims:  []string{"memory"},
		Scale: 0.1, JobTimeout: "1ns", FailFast: true,
	}
	sw, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sw)
	st := sw.Status()
	if st.Total != 12 {
		t.Fatalf("total = %d, want 12", st.Total)
	}
	if st.Ok != 0 || st.Failed != 12 {
		t.Fatalf("ok=%d failed=%d, want 0/12 under a 1ns deadline", st.Ok, st.Failed)
	}

	terminal := map[int]int{}
	skipped := 0
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	evs, done, err := sw.WaitEvents(ctx, 0)
	if err != nil || !done {
		t.Fatalf("WaitEvents: done=%v err=%v", done, err)
	}
	for _, ev := range evs {
		if ev.Type != "job" || ev.State == StateRunning {
			continue
		}
		terminal[ev.Job]++
		if ev.State == StateSkipped {
			skipped++
			if !strings.Contains(ev.Error, "job skipped") {
				t.Errorf("skipped job %d does not carry ErrJobSkipped: %q", ev.Job, ev.Error)
			}
		}
	}
	if len(terminal) != 12 {
		t.Errorf("terminal events for %d jobs, want 12", len(terminal))
	}
	for j, n := range terminal {
		if n != 1 {
			t.Errorf("job %d reached %d terminal states, want exactly 1", j, n)
		}
	}
	// Two workers at most were in flight when the first failure hit, so
	// at least 10 of the 12 jobs must have been skipped by FailFast.
	if skipped == 0 {
		t.Error("FailFast sweep skipped no jobs")
	}
	// Nothing may be cached from a sweep where every job failed.
	if stats := s.Stats(); stats.Cache.Hits != 0 {
		t.Errorf("failed jobs produced cache hits: %+v", stats.Cache)
	}
}

// TestConcurrentIdenticalSweeps: many identical submissions racing
// through multiple workers stay race-clean and all produce identical
// results; at most one simulation per distinct job runs (the rest hit
// disk or join the in-progress flight).
func TestConcurrentIdenticalSweeps(t *testing.T) {
	s := newService(t, Config{QueueDepth: 16})
	const n = 4
	sweeps := make([]*Sweep, n)
	for i := range sweeps {
		sw, err := s.Submit(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		sweeps[i] = sw
	}
	var want []byte
	for i, sw := range sweeps {
		waitDone(t, sw)
		if st := sw.Status(); st.Failed != 0 {
			t.Fatalf("sweep %d failed: %+v", i, st)
		}
		res, err := sw.Results()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
		} else if !bytes.Equal(want, res) {
			t.Errorf("sweep %d results differ", i)
		}
	}
	if stats := s.Stats(); stats.Cache.Misses != 1 {
		t.Errorf("%d simulations ran for 4 identical single-job sweeps, want 1", stats.Cache.Misses)
	}
}

// TestSubmitValidation: bad specs are rejected before admission.
func TestSubmitValidation(t *testing.T) {
	s := newService(t, Config{})
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown app", Spec{Apps: []string{"NOPE"}}, "NOPE"},
		{"unknown gpu", Spec{GPUs: []string{"GTX9000"}}, "GTX9000"},
		{"unknown sim", Spec{Sims: []string{"quantum"}}, "quantum"},
		{"bad timeout", Spec{JobTimeout: "banana"}, "job_timeout"},
		{"negative timeout", Spec{JobTimeout: "-1s"}, "negative"},
		{"negative scale", Spec{Scale: -1}, "scale"},
		{"negative epoch_cycles", Spec{EpochCycles: -1}, "epoch_cycles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Submit(tc.spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Submit = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

// TestResolveOverlay: a spec's options are overlaid on the daemon's defaults
// by the one rule (sim.Options.WithDefaults): what the spec sets wins, what
// it leaves zero takes the daemon's value. The spec's own sampling fields
// are validated before the overlay — tuning fields without `sample` are
// dead even when the daemon samples by default — and the effective options
// after it.
func TestResolveOverlay(t *testing.T) {
	def := sim.Options{EpochCycles: 8, Sampling: sim.Sampling{Enabled: true, BlockFraction: 0.5}}
	s := newService(t, Config{Defaults: def})
	own := sim.Sampling{Enabled: true, BlockFraction: 0.25, ReplayStride: 2, Seed: 7}
	for _, tc := range []struct {
		name string
		spec Spec
		want sim.Options
	}{
		{"zero takes the default", Spec{},
			sim.Options{Kind: sim.Memory, EpochCycles: 8, Sampling: def.Sampling}},
		{"job value wins", Spec{EpochCycles: 1, Sample: true, SampleFrac: 0.25, SampleStride: 2, SampleSeed: 7},
			sim.Options{Kind: sim.Memory, EpochCycles: 1, Sampling: own}},
		{"fields overlay independently", Spec{EpochCycles: 2},
			sim.Options{Kind: sim.Memory, EpochCycles: 2, Sampling: def.Sampling}},
	} {
		tc.spec.Apps, tc.spec.GPUs = []string{"BFS"}, []string{"RTX2080Ti"}
		jobs, _, err := s.resolve(tc.spec)
		if err != nil || len(jobs) != 1 {
			t.Fatalf("%s: resolve = %d jobs, %v", tc.name, len(jobs), err)
		}
		if got := jobs[0].opts; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: options %+v, want %+v", tc.name, got, tc.want)
		}
	}
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"sample_frac without sample", Spec{SampleFrac: 0.25}, "sample_frac"},
		{"sample_stride without sample", Spec{SampleStride: 4}, "sample_stride"},
		{"sample_seed without sample", Spec{SampleSeed: 7}, "sample_seed"},
		{"sample_frac out of range", Spec{Sample: true, SampleFrac: 1}, "sample_frac"},
	} {
		if _, _, err := s.resolve(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resolve = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := New(Config{CacheDir: t.TempDir(), Defaults: sim.Options{EpochCycles: -8}}); err == nil || !strings.Contains(err.Error(), "daemon defaults") {
		t.Errorf("New accepted a negative default epoch: %v", err)
	}
}

// TestMaxJobTimeoutClamp: the service caps (and defaults) per-job budgets.
func TestMaxJobTimeoutClamp(t *testing.T) {
	s := newService(t, Config{MaxJobTimeout: time.Minute})
	spec := smallSpec()
	spec.JobTimeout = "2h"
	_, timeout, err := s.resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if timeout != time.Minute {
		t.Errorf("timeout = %v, want clamped to 1m", timeout)
	}
	spec.JobTimeout = ""
	if _, timeout, _ = s.resolve(spec); timeout != time.Minute {
		t.Errorf("default timeout = %v, want 1m", timeout)
	}
	spec.JobTimeout = "1s"
	if _, timeout, _ = s.resolve(spec); timeout != time.Second {
		t.Errorf("within-cap timeout = %v, want 1s", timeout)
	}
}

// TestJobKeyDiscriminates: the cache key separates everything that can
// change results, and unifies content-identical trace copies.
func TestJobKeyDiscriminates(t *testing.T) {
	gpu, _ := config.Preset("RTX2080Ti")
	gpu2, _ := config.Preset("RTX3060")
	a1, err := workload.Generate("BFS", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := workload.Generate("SM", 0.1)
	a3, _ := workload.Generate("BFS", 0.2)
	base := jobKey(a1, gpu, sim.Options{Kind: sim.Memory})
	if jobKey(a1, gpu, sim.Options{Kind: sim.Memory}) != base {
		t.Error("identical jobs got different keys")
	}
	diff := map[string]string{
		"app":   jobKey(a2, gpu, sim.Options{Kind: sim.Memory}),
		"scale": jobKey(a3, gpu, sim.Options{Kind: sim.Memory}),
		"gpu":   jobKey(a1, gpu2, sim.Options{Kind: sim.Memory}),
		"kind":  jobKey(a1, gpu, sim.Options{Kind: sim.Basic}),
		"rates": jobKey(a1, gpu, sim.Options{Kind: sim.Memory, HitRates: sim.ReuseDistance}),
	}
	for dim, k := range diff {
		if k == base {
			t.Errorf("key ignores %s", dim)
		}
	}
	// A relaxed epoch length has its own line wherever an assembly runs it,
	// and shares the exact line where it cannot (Memory always runs exact).
	relaxed := sim.Options{Kind: sim.Basic, EpochCycles: 8}
	if jobKey(a1, gpu, relaxed) == jobKey(a1, gpu, sim.Options{Kind: sim.Basic}) {
		t.Error("key ignores epoch")
	}
	relaxed.Kind = sim.Memory
	if jobKey(a1, gpu, relaxed) != base {
		t.Error("key separates an epoch length Memory never runs")
	}
	// EngineThreads is read by nothing and must share the key; so must the
	// unset/explicit spellings of exact mode (EpochCycles 0 and 1).
	if jobKey(a1, gpu, sim.Options{Kind: sim.Memory, EngineThreads: 4}) != base {
		t.Error("key varies with EngineThreads")
	}
	if jobKey(a1, gpu, sim.Options{Kind: sim.Memory, EpochCycles: 1}) != base {
		t.Error("key separates EpochCycles 0 from 1 (both are exact mode)")
	}
}
