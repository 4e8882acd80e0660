package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swiftsim/internal/obs"
)

// Tests for what the single execution plane guarantees: the daemon's own
// executors and remote workers claim from one board (TestDistributedLocal…,
// part of `make distributed-e2e`), the daemon's trace pids, the bound on
// retained sweeps, and worker re-registration.

// awaitSignal waits for ch with a test-failing timeout; it reports whether
// the signal came. Safe off the test goroutine (t.Error, not t.Fatal).
func awaitSignal(t *testing.T, ch <-chan struct{}, what string) bool {
	t.Helper()
	select {
	case <-ch:
		return true
	case <-time.After(30 * time.Second):
		t.Errorf("timed out waiting for %s", what)
		return false
	}
}

// terminalEvents counts terminal job events per job index over a finished
// sweep's event log.
func terminalEvents(t *testing.T, sw *Sweep) map[int]int {
	t.Helper()
	evs, done, err := sw.WaitEvents(context.Background(), 0)
	if err != nil || !done {
		t.Fatalf("WaitEvents: done=%v err=%v", done, err)
	}
	terminal := map[int]int{}
	for _, ev := range evs {
		if ev.Type == "job" && ev.State != StateRunning {
			terminal[ev.Job]++
		}
	}
	return terminal
}

// TestDistributedLocalMixedFleet: a daemon that runs its own executor and
// an HTTP worker registered with it share one sweep. Each claimant is held
// on its first job until the other has one too, so both provably finish
// work, and the results are those of a single-process run.
func TestDistributedLocalMixedFleet(t *testing.T) {
	spec := Spec{Apps: []string{"BFS", "SM", "GEMM", "LU"}, GPUs: []string{"RTX2080Ti"}, Sims: []string{"memory"}, Scale: 0.1}
	want := localResults(t, spec)

	s, srv := newHTTPService(t, Config{Threads: 1})
	localHas, remoteHas := make(chan struct{}), make(chan struct{})
	var localOnce, remoteOnce sync.Once
	var localJobs atomic.Int32
	s.runHook = func(*lease) {
		localJobs.Add(1)
		localOnce.Do(func() { close(localHas) })
		awaitSignal(t, remoteHas, "the HTTP worker's first claim")
	}
	w, _, _ := startTestWorker(t, srv.URL, func(WireJob) {
		remoteOnce.Do(func() { close(remoteHas) })
		awaitSignal(t, localHas, "the executor's first claim")
	})

	sw, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sw)
	if st := sw.Status(); st.Ok != 4 || st.Failed != 0 {
		t.Fatalf("mixed-fleet sweep: %+v", st)
	}
	res, err := sw.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, want) {
		t.Errorf("mixed-fleet results differ from the single-process run:\n%s", res)
	}
	local, remote := int(localJobs.Load()), int(w.Stats().Done)
	if local < 1 || remote < 1 || local+remote != 4 {
		t.Errorf("executor finished %d job(s), HTTP worker %d; want both >= 1 and 4 in total", local, remote)
	}
	// The store holds the four result blobs and nothing else, whoever ran
	// the job: a remote grant names its inputs instead of publishing them.
	// A remote commit puts its result twice (the worker's publish, then the
	// cache's Fulfill of the same bytes), which counts as a dup.
	st := s.Stats()
	if st.Store.Puts != 4 || st.Store.Dups != uint64(remote) {
		t.Errorf("store puts = %d, dups = %d, want 4 and %d (one result per job, no inputs)", st.Store.Puts, st.Store.Dups, remote)
	}
	if st.Remote.Expired != 0 || st.Remote.Stale != 0 {
		t.Errorf("board stats = %+v, want no expiries or stale commits", st.Remote)
	}
}

// TestDistributedLocalGrantOutlivesLeaseTTL: an in-process grant cannot
// expire under a live executor. The job is held for several 20 ms TTLs —
// with the background reaper ticking, and one explicit reap an hour ahead —
// and still runs exactly once.
func TestDistributedLocalGrantOutlivesLeaseTTL(t *testing.T) {
	s := newService(t, Config{Remote: RemoteConfig{LeaseTTL: 20 * time.Millisecond, MaxAttempts: 1}})
	var runs atomic.Int32
	s.runHook = func(*lease) {
		runs.Add(1)
		time.Sleep(100 * time.Millisecond)
		s.board.reap(time.Now().Add(time.Hour))
	}
	sw, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sw)
	if st := sw.Status(); st.Ok != 1 || st.Failed != 0 {
		t.Fatalf("held job: %+v", st)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("job simulated %d times, want once", n)
	}
	if st := s.Stats(); st.Remote.Expired != 0 || st.Remote.Workers != 1 {
		t.Errorf("board stats = %+v, want no expiry and the executor pool still registered", st.Remote)
	}
}

// TestDistributedLocalFailFastCancelsRunningJob: FailFast reaches a job an
// executor is already running through the grant's context, at once, rather
// than waiting for a heartbeat. Job 1 is held running until job 0 fails;
// it ends skipped, and every job has exactly one terminal event.
func TestDistributedLocalFailFastCancelsRunningJob(t *testing.T) {
	s := newService(t, Config{Threads: 2})
	held := make(chan struct{})
	canceled := make(chan struct{})
	s.runHook = func(l *lease) {
		if l.job.index == 0 {
			awaitSignal(t, held, "job 1 to be running")
			return // and fail on the 1ns budget
		}
		close(held)
		if awaitSignal(t, l.ctx.Done(), "the held job's context to be canceled") {
			close(canceled)
		}
	}
	spec := Spec{Apps: []string{"BFS", "SM"}, GPUs: []string{"RTX2080Ti"}, Sims: []string{"memory"}, Scale: 0.1, JobTimeout: "1ns", FailFast: true}
	sw, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sw)
	awaitSignal(t, canceled, "the executor to see the cancellation")

	st := sw.Status()
	if st.Jobs[0].State != StateFailed || !strings.Contains(st.Jobs[0].Error, "deadline") {
		t.Errorf("job 0 = %+v, want failed on its deadline", st.Jobs[0])
	}
	if st.Jobs[1].State != StateSkipped || !strings.Contains(st.Jobs[1].Error, "job skipped") {
		t.Errorf("job 1 = %+v, want skipped by fail-fast", st.Jobs[1])
	}
	for job, n := range terminalEvents(t, sw) {
		if n != 1 {
			t.Errorf("job %d reached %d terminal states, want exactly 1", job, n)
		}
	}
}

// TestDistributedLocalThreadBudget: the thread budget holds daemon-wide.
// Every job occupies one of the Threads executors, so no more than two run
// at once, in the executors and in the event log alike.
func TestDistributedLocalThreadBudget(t *testing.T) {
	s := newService(t, Config{Threads: 2})
	var inHook, peak atomic.Int32
	s.runHook = func(*lease) {
		n := inHook.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(20 * time.Millisecond) // long enough for an unbudgeted third claim to land
		inHook.Add(-1)
	}
	spec := Spec{Apps: []string{"BFS", "SM", "GEMM", "LU", "NW", "ADI"}, GPUs: []string{"RTX2080Ti"}, Sims: []string{"memory"}, Scale: 0.1}
	sw, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sw)
	if st := sw.Status(); st.Ok != 6 {
		t.Fatalf("sweep: %+v", st)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d jobs held by executors at once, want at most 2", p)
	}
	evs, _, err := sw.WaitEvents(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	running := 0
	for _, ev := range evs {
		switch {
		case ev.Type != "job":
		case ev.State == StateRunning:
			if running++; running > 2 {
				t.Fatalf("event %d: %d jobs running at once, want at most 2 (the executor count)", ev.Seq, running)
			}
		default:
			running--
		}
	}
}

// TestDistributedFailFastRemote: the one FailFast serves remote claimants
// too. A worker reports the first job's failure, the rest of the sweep is
// canceled on the board, and the sweep completes (the skips re-enter the
// job callback, which used to deadlock a sync.Once).
func TestDistributedFailFastRemote(t *testing.T) {
	_, srv := newHTTPService(t, remoteConfig(5*time.Second, 3))
	startTestWorker(t, srv.URL, nil)
	code, body := postSweep(t, srv, `{"apps":["BFS","SM","GEMM"],"gpus":["RTX2080Ti"],"sims":["memory"],"scale":1,"job_timeout":"1ns","fail_fast":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %v", code, body)
	}
	st := waitHTTPDone(t, srv, body["id"].(string))
	skipped := 0
	for _, j := range st.Jobs {
		if j.State == StateSkipped {
			skipped++
		}
	}
	if st.Ok != 0 || st.Failed != 3 || skipped == 0 {
		t.Errorf("status = %+v (%d skipped), want 3 failed with at least one skipped by fail-fast", st, skipped)
	}
}

// TestDistributedWorkerReregisters: a worker the daemon has forgotten (a
// restart, or aged out) is told so by a 404 and registers again under a
// new id instead of retrying the dead one for ever; the sweep completes.
func TestDistributedWorkerReregisters(t *testing.T) {
	s, srv := newHTTPService(t, remoteConfig(300*time.Millisecond, 3))
	var w *Worker
	var forget sync.Once
	var oldID string
	ready := make(chan struct{})
	w, _, _ = startTestWorker(t, srv.URL, func(WireJob) {
		<-ready
		forget.Do(func() {
			oldID = *w.id.Load()
			s.board.mu.Lock()
			delete(s.board.workers, oldID)
			s.board.mu.Unlock()
		})
	})
	close(ready)

	code, body := postSweep(t, srv, `{"apps":["BFS","SM","GEMM"],"gpus":["RTX2080Ti"],"sims":["memory"],"scale":0.1}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %v", code, body)
	}
	st := waitHTTPDone(t, srv, body["id"].(string))
	if st.Ok != 3 || st.Failed != 0 {
		t.Fatalf("sweep across a forgotten registration: %+v", st)
	}
	newID := *w.id.Load()
	if oldID == "" || newID == oldID {
		t.Errorf("worker id %q -> %q, want a fresh registration", oldID, newID)
	}
	if n := s.Stats().Remote.Workers; n != 1 {
		t.Errorf("remote.workers = %d, want 1 (the new registration only)", n)
	}
}

// TestBoardForgetsSilentWorkers: the reaper ages out remote workers that
// have been silent for forgetAfterTTLs lease TTLs — so the worker count is
// of live workers, not of registrations since boot — and never the
// daemon's own executor pool, which does not heartbeat.
func TestBoardForgetsSilentWorkers(t *testing.T) {
	b := newBoard(inertTTL, 3)
	defer b.Close(nil)
	dead, alive := b.Register(false), b.Register(false)
	b.Register(true)

	b.reap(time.Now().Add((forgetAfterTTLs - 1) * inertTTL))
	if n := b.Stats().Workers; n != 3 {
		t.Fatalf("workers = %d after %d silent TTLs, want all 3 kept", n, forgetAfterTTLs-1)
	}
	// A heartbeat with no leases is what an idle worker sends.
	b.mu.Lock()
	b.workers[alive].lastSeen = time.Now().Add(2 * inertTTL)
	b.mu.Unlock()
	b.reap(time.Now().Add((forgetAfterTTLs + 1) * inertTTL))
	if n := b.Stats().Workers; n != 2 {
		t.Errorf("workers = %d, want 2 (the silent remote worker forgotten)", n)
	}
	if _, err := b.Claim(context.Background(), dead); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("forgotten worker's claim = %v, want ErrUnknownWorker", err)
	}
	if _, _, err := b.Heartbeat(alive, nil); err != nil {
		t.Errorf("live worker's heartbeat = %v", err)
	}
}

// TestSweepRetention: finished sweeps are retained up to maxFinishedSweeps,
// oldest evicted first and answered with ErrNotFound; a sweep that has not
// finished is never evicted, however many finish after it.
func TestSweepRetention(t *testing.T) {
	s := newService(t, Config{})
	release := make(chan struct{})
	s.execHook = func(sw *Sweep) {
		if sw.ID() == "s1" {
			<-release
		}
	}
	heldSweep, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	other := smallSpec()
	other.Apps = []string{"SM"} // not the held sweep's flight
	const extra = 3
	var ids []string
	for i := 0; i < maxFinishedSweeps+extra; i++ {
		sw, err := s.Submit(other)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, sw)
		ids = append(ids, sw.ID())
	}
	for i, id := range ids {
		_, err := s.Sweep(id)
		if evicted := i < extra; evicted != errors.Is(err, ErrNotFound) {
			t.Errorf("sweep %s (finished #%d of %d): err = %v, evicted should be %v", id, i+1, len(ids), err, evicted)
		}
	}
	if _, err := s.Sweep(heldSweep.ID()); err != nil {
		t.Errorf("unfinished sweep evicted: %v", err)
	}
	if n := s.Stats().Sweeps; n != maxFinishedSweeps+1 {
		t.Errorf("stats.Sweeps = %d, want %d finished + 1 running", n, maxFinishedSweeps)
	}
	close(release)
	waitDone(t, heldSweep)
}

// TestDaemonTracing: two sweeps through the daemon tracer. Every executed
// job records its simulation in a pid of its own — pairwise disjoint across
// both sweeps, never pid 0, which is the daemon's — and has exactly one
// wall-clock job span, on its sweep's row and carrying its job index.
func TestDaemonTracing(t *testing.T) {
	ring := obs.NewRing(0)
	s := newService(t, Config{Threads: 2, Trace: obs.New(ring, obs.KernelLevel)})
	specs := []Spec{
		{Apps: []string{"BFS", "SM"}, GPUs: []string{"RTX2080Ti"}, Sims: []string{"memory"}, Scale: 0.1},
		{Apps: []string{"GEMM", "LU", "NW"}, GPUs: []string{"RTX2080Ti"}, Sims: []string{"memory"}, Scale: 0.1},
	}
	var sweeps []*Sweep
	for _, spec := range specs {
		sw, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		sweeps = append(sweeps, sw)
	}
	jobs := 0
	for _, sw := range sweeps {
		waitDone(t, sw)
		st := sw.Status()
		if st.Failed != 0 || st.Cached != 0 {
			t.Fatalf("sweep %s: %+v, want every job executed", sw.ID(), st)
		}
		jobs += st.Total
	}

	simPids := map[int32]bool{}  // pids holding a simulation's kernel spans
	spanPids := map[int32]bool{} // pids the job spans name as their job's
	rows := map[int32]bool{}     // pids the job spans themselves sit on
	spans := 0
	for _, ev := range ring.Events() {
		switch {
		case ev.Ph == obs.PhaseSpan && ev.Cat == "kernel":
			simPids[ev.Pid] = true
		case ev.Ph == obs.PhaseSpan && ev.Cat == "job":
			spans++
			rows[ev.Pid] = true
			spanPids[ev.Pid+int32(ev.Arg1)+1] = true
		}
	}
	if len(simPids) != jobs {
		t.Errorf("%d jobs simulated into %d pids %v, want one pid each", jobs, len(simPids), simPids)
	}
	if simPids[0] {
		t.Error("a job recorded into pid 0, the daemon's own row")
	}
	if spans != jobs {
		t.Errorf("%d job spans for %d executed jobs, want one each", spans, jobs)
	}
	if fmt.Sprint(spanPids) != fmt.Sprint(simPids) {
		t.Errorf("job spans name pids %v, simulations recorded into %v", spanPids, simPids)
	}
	if len(rows) != len(sweeps) {
		t.Errorf("job spans sit on %d rows %v, want one per sweep", len(rows), rows)
	}
	for pid := range rows {
		if simPids[pid] {
			t.Errorf("job spans share pid %d with a simulation", pid)
		}
	}
}
