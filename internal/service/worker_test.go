package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/sim"
	"swiftsim/internal/workload"
)

// Tests for the worker's side of a name-based grant: which grants it refuses
// and what it then says, what a remote sweep leaves in the store, what the
// plane costs per job, and how Run ends.

// TestWorkerRunEndsOnRegistration: a cancel that lands while the worker is
// still looking for its daemon is a clean stop (nil), like a cancel at any
// later point; a daemon that answers and says no is the one error Run has.
func TestWorkerRunEndsOnRegistration(t *testing.T) {
	t.Run("canceled while the daemon is down", func(t *testing.T) {
		srv := httptest.NewServer(http.NotFoundHandler())
		srv.Close() // the address now refuses connections
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- NewWorker(WorkerConfig{BaseURL: srv.URL}).Run(ctx) }()
		time.Sleep(50 * time.Millisecond) // into the first backoff
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Run = %v, want nil after a cancel during registration", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Run did not return after its context was canceled")
		}
	})
	t.Run("canceled before Run", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := NewWorker(WorkerConfig{BaseURL: "http://127.0.0.1:1"}).Run(ctx); err != nil {
			t.Errorf("Run = %v, want nil", err)
		}
	})
	t.Run("rejected", func(t *testing.T) {
		srv := httptest.NewServer(http.NotFoundHandler())
		defer srv.Close()
		err := NewWorker(WorkerConfig{BaseURL: srv.URL}).Run(context.Background())
		if err == nil || !strings.Contains(err.Error(), "registration rejected: HTTP 404") {
			t.Errorf("Run = %v, want the rejection", err)
		}
	})
}

// TestWorkerOfAnotherBuildIsTurnedAway: a registration that states another
// build's version is answered 409, naming both versions, and registers
// nothing; one that states this build's, or none, registers. A Worker the
// daemon turns away ends Run with that error and claims nothing, whether
// at its first registration or at the re-registration after the daemon
// forgot it (as a daemon restarted at another build has).
func TestWorkerOfAnotherBuildIsTurnedAway(t *testing.T) {
	const other = "0badc0de"
	t.Run("raw registration", func(t *testing.T) {
		s, srv := newHTTPService(t, remoteConfig(time.Minute, 3))
		for _, tc := range []struct {
			body string
			want int
		}{
			{`{"name":"old","version":"` + other + `"}`, http.StatusConflict},
			{`{"name":"same","version":"` + codeVersion + `"}`, http.StatusOK},
			{`{"name":"unstated"}`, http.StatusOK},
		} {
			resp, err := http.Post(srv.URL+"/v1/workers", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("register %s = HTTP %d %s, want %d", tc.body, resp.StatusCode, body, tc.want)
			}
			if tc.want == http.StatusConflict && (!bytes.Contains(body, []byte(other)) || !bytes.Contains(body, []byte(codeVersion))) {
				t.Errorf("rejection %s does not name both versions", body)
			}
		}
		if n := s.Stats().Remote.Workers; n != 2 {
			t.Errorf("remote.workers = %d, want the 2 accepted registrations", n)
		}
	})

	// run starts a Worker against a daemon whose registrations are rewritten
	// to another build's while otherBuild is set, and returns the daemon and
	// Run's result.
	run := func(t *testing.T, otherBuild *atomic.Bool) (*Service, <-chan error, *atomic.Int32) {
		s := newService(t, remoteConfig(300*time.Millisecond, 3))
		inner := NewHandler(s)
		var claims atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/workers" && otherBuild.Load() {
				r.Body = io.NopCloser(strings.NewReader(`{"name":"w","version":"` + other + `"}`))
			}
			if strings.HasSuffix(r.URL.Path, "/claim") {
				claims.Add(1)
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		done := make(chan error, 1)
		go func() { done <- NewWorker(WorkerConfig{BaseURL: srv.URL, PollWait: 50 * time.Millisecond}).Run(ctx) }()
		return s, done, &claims
	}
	turnedAway := func(t *testing.T, done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "HTTP 409") || !strings.Contains(err.Error(), other) ||
				!strings.Contains(err.Error(), codeVersion) {
				t.Errorf("Run = %v, want the 409 naming both versions", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Run did not end after the daemon turned the worker away")
		}
	}

	t.Run("at the first registration", func(t *testing.T) {
		var otherBuild atomic.Bool
		otherBuild.Store(true)
		s, done, claims := run(t, &otherBuild)
		turnedAway(t, done)
		if n := claims.Load(); n != 0 || s.Stats().Remote.Workers != 0 {
			t.Errorf("%d claims and %d workers registered, want none", n, s.Stats().Remote.Workers)
		}
	})
	t.Run("at a re-registration", func(t *testing.T) {
		var otherBuild atomic.Bool
		s, done, claims := run(t, &otherBuild)
		for claims.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		otherBuild.Store(true)
		s.board.mu.Lock()
		clear(s.board.workers)
		s.board.mu.Unlock()
		turnedAway(t, done)
	})
}

// fakeDaemon is the lease plane reduced to one grant: it registers whoever
// asks as w1, answers the first claim with grant and later ones with "none",
// accepts every publish and report, and logs each request after the
// registration. reported closes at the first lease report.
type fakeDaemon struct {
	grant WireJob

	mu       sync.Mutex
	granted  bool
	requests []string // "METHOD path body"
	reported chan struct{}
}

func (d *fakeDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	switch {
	case r.URL.Path == "/v1/workers":
		writeJSON(w, http.StatusOK, map[string]any{"id": "w1", "lease_ttl_ms": 60000, "heartbeat_ms": 20000})
		return
	case strings.HasSuffix(r.URL.Path, "/claim"):
		d.mu.Lock()
		first := !d.granted
		d.granted = true
		d.mu.Unlock()
		if first {
			writeJSON(w, http.StatusOK, d.grant)
			return
		}
		select { // an idle long poll
		case <-r.Context().Done():
		case <-time.After(100 * time.Millisecond):
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	d.mu.Lock()
	d.requests = append(d.requests, r.Method+" "+r.URL.Path+" "+string(body))
	d.mu.Unlock()
	switch {
	case r.URL.Path == "/v1/store":
		writeJSON(w, http.StatusOK, map[string]string{"hash": BlobHash(body)})
	case strings.HasPrefix(r.URL.Path, "/v1/leases/"):
		writeJSON(w, http.StatusOK, map[string]any{})
		close(d.reported)
	default:
		http.NotFound(w, r)
	}
}

// goodGrant is a grant a worker accepts: BFS at scale 0.1 on the 2080 Ti
// under Swift-Sim-Memory, keyed as the daemon would key it.
func goodGrant(t *testing.T) WireJob {
	t.Helper()
	app, err := workload.Generate("BFS", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	gpu, _ := config.Preset("RTX2080Ti")
	opts := sim.Options{Kind: sim.Memory}
	return WireJob{
		Key: jobKey(newKeyMemo(), app, gpu, opts), LeaseID: "l7", Token: 3,
		App: "BFS", Scale: 0.1, Config: string(config.Marshal(gpu)),
		GPU: gpu.Name, Sim: opts.Kind.String(), Opts: opts, LeaseTTLMS: 60000,
	}
}

// TestWorkerRefusesGrants: a grant whose inputs this worker cannot build, or
// which build some other job, gets exactly one error report that names the
// reason, and nothing is published or committed. The accepted grant shows
// the rig can tell: it publishes and commits.
func TestWorkerRefusesGrants(t *testing.T) {
	good := goodGrant(t)
	forged := strings.Repeat("0", len(good.Key))
	cases := []struct {
		name   string
		tamper func(*WireJob)
		want   []string // all in the reported error; nil = the grant is accepted
	}{
		{"accepted", func(*WireJob) {}, nil},
		{"tampered key", func(j *WireJob) { j.Key = forged }, []string{forged, good.Key}},
		{"another trace under the key", func(j *WireJob) { j.Scale = 0.2 }, []string{good.Key, "derive"}},
		{"unknown app", func(j *WireJob) { j.App = "NOSUCHAPP" }, []string{`unknown application \"NOSUCHAPP\"`}},
		{"zero scale", func(j *WireJob) { j.Scale = 0 }, []string{"scale must be positive"}},
		{"negative scale", func(j *WireJob) { j.Scale = -1 }, []string{"scale must be positive"}},
		{"unparsable config", func(j *WireJob) { j.Config = "[gpu\nthis is not a config" }, []string{"parsing config"}},
		{"invalid options", func(j *WireJob) { j.Opts.EpochCycles = -8 }, []string{"wire options"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := &fakeDaemon{grant: good, reported: make(chan struct{})}
			tc.tamper(&d.grant)
			srv := httptest.NewServer(d)
			defer srv.Close()
			w, cancel, done := startTestWorker(t, srv.URL, nil)
			if !awaitSignal(t, d.reported, "the worker's report") {
				return
			}
			cancel()
			<-done

			d.mu.Lock()
			defer d.mu.Unlock()
			if tc.want == nil {
				if len(d.requests) != 2 || !strings.HasPrefix(d.requests[0], "POST /v1/store ") ||
					!strings.HasPrefix(d.requests[1], `POST /v1/leases/l7/result {"result":"`) {
					t.Errorf("accepted grant made requests %q, want a publish then a commit", d.requests)
				}
				return
			}
			if len(d.requests) != 1 || !strings.HasPrefix(d.requests[0], `POST /v1/leases/l7/error {"error":"`) {
				t.Fatalf("refused grant made requests %q, want exactly one error report", d.requests)
			}
			if !strings.Contains(d.requests[0], `"token":3`) {
				t.Errorf("report %q does not carry the grant's token", d.requests[0])
			}
			for _, reason := range tc.want {
				if !strings.Contains(d.requests[0], reason) {
					t.Errorf("report %q does not name %q", d.requests[0], reason)
				}
			}
			if ws := w.Stats(); ws.Claimed != 1 || ws.Failed != 1 || ws.Done != 0 {
				t.Errorf("worker stats = %+v, want the one claim failed", ws)
			}
		})
	}
}

// planeServer serves a real daemon's API with the worker-facing traffic
// observed: storeGets counts GET /v1/store requests, and tamper (when set)
// edits each grant on its way out.
func planeServer(t *testing.T, s *Service, storeGets *atomic.Int32, tamper func(*WireJob)) *httptest.Server {
	t.Helper()
	inner := NewHandler(s)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/store/") {
			storeGets.Add(1)
		}
		if tamper == nil || !strings.HasSuffix(r.URL.Path, "/claim") {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		var job WireJob
		if rec.Code == http.StatusOK && json.Unmarshal(body, &job) == nil {
			tamper(&job)
			body, _ = json.Marshal(job)
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestDistributedRefusedGrantFailsItsJobOnly: against a real daemon, a grant
// that reaches the worker naming another trace than the daemon keyed ends
// its job failed, with the worker's reason in the sweep status, and the
// sweep's other jobs finish. Nothing of the refused job reaches the store.
func TestDistributedRefusedGrantFailsItsJobOnly(t *testing.T) {
	s := newService(t, remoteConfig(5*time.Second, 3))
	var storeGets atomic.Int32
	// The daemon's key for BFS, as its grant names it: a finished sweep
	// keeps no resolved jobs to read it from.
	var bfsKey atomic.Pointer[string]
	srv := planeServer(t, s, &storeGets, func(j *WireJob) {
		if j.App == "BFS" {
			bfsKey.Store(&j.Key)
			j.Scale *= 2
		}
	})
	startTestWorker(t, srv.URL, nil)

	sw, err := s.Submit(Spec{Apps: []string{"BFS", "SM", "GEMM"}, GPUs: []string{"RTX2080Ti"}, Sims: []string{"memory"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sw)
	st := sw.Status()
	if st.Ok != 2 || st.Failed != 1 {
		t.Fatalf("status = %+v, want the refused job failed and the other two done", st)
	}
	key := "(no BFS grant)"
	if k := bfsKey.Load(); k != nil {
		key = *k
	}
	for i, j := range st.Jobs {
		switch {
		case j.App != "BFS":
			if j.State != StateDone {
				t.Errorf("job %d (%s) = %s, want done", i, j.App, j.State)
			}
		case j.State != StateFailed || !strings.Contains(j.Error, key) || !strings.Contains(j.Error, "derive"):
			t.Errorf("refused job = %+v, want failed with both keys named (the daemon's is %s)", j, key)
		}
	}
	if stats := s.Stats(); stats.Store.Puts != 2 || stats.Remote.Expired != 0 || storeGets.Load() != 0 {
		t.Errorf("stats = %+v with %d store reads, want two results stored, none read and no lease left to expire", stats, storeGets.Load())
	}
}

// TestDistributedStoreCarriesResultsOnly: after a remote sweep of N jobs the
// store has had N puts, one per result, and the worker never read from it: a
// grant is all the input a job has.
func TestDistributedStoreCarriesResultsOnly(t *testing.T) {
	s := newService(t, remoteConfig(5*time.Second, 3))
	var storeGets atomic.Int32
	srv := planeServer(t, s, &storeGets, nil)
	w, _, _ := startTestWorker(t, srv.URL, nil)

	spec := Spec{Apps: []string{"BFS", "SM", "GEMM"}, GPUs: []string{"RTX2080Ti"}, Sims: []string{"basic", "memory"}, Scale: 0.1}
	sw, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sw)
	const n = 6
	if st := sw.Status(); st.Ok != n || w.Stats().Done != n {
		t.Fatalf("sweep %+v, worker %+v; want %d jobs done remotely", st, w.Stats(), n)
	}
	if st := s.Stats().Store; st.Puts != n {
		t.Errorf("store stats = %+v, want %d puts (one result per job, no inputs)", st, n)
	}
	if g := storeGets.Load(); g != 0 {
		t.Errorf("the worker made %d GET /v1/store request(s), want 0", g)
	}
	res, err := sw.Results()
	if err != nil {
		t.Fatal(err)
	}
	if want := localResults(t, spec); !bytes.Equal(res, want) {
		t.Errorf("remote results differ from the single-process run:\n%s", res)
	}
}

// sweepMallocs runs spec cold (a fresh result cache) on a daemon of its own
// and returns the process's heap allocations from Submit to the tally:
// through a loopback worker when remote, else on one in-process executor.
func sweepMallocs(t *testing.T, spec Spec, remote bool) uint64 {
	t.Helper()
	cfg := Config{Threads: 1}
	if remote {
		cfg = remoteConfig(time.Minute, 3) // no heartbeat falls inside the sweep
	}
	s, srv := newHTTPService(t, cfg)
	if remote {
		startTestWorkerCfg(t, WorkerConfig{BaseURL: srv.URL, PollWait: 30 * time.Second}, nil)
		for s.Stats().Remote.Workers == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // the first claim is parked
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sw, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sw)
	runtime.ReadMemStats(&after)
	if st := sw.Status(); st.Ok != st.Total || st.Cached != 0 {
		t.Fatalf("sweep (remote=%v): %+v, want every job simulated", remote, st)
	}
	return after.Mallocs - before.Mallocs
}

// TestRemotePlaneCostDoesNotGrowWithTheTrace: what a job costs on the
// remote plane beyond what it costs an in-process executor is a grant, a
// publish and a commit, so it is the same for a trace five times the size.
// When traces travelled as text it grew with them: 44,000 a job at the small
// scale here and 176,000 at the large one, against 730 at both now.
func TestRemotePlaneCostDoesNotGrowWithTheTrace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	apps := []string{"BFS", "SM", "GEMM", "LU"}
	extra := func(scale float64) float64 {
		spec := Spec{Apps: apps, GPUs: []string{"RTX2080Ti"}, Sims: []string{"memory"}, Scale: scale}
		// Warm the process memos both planes share (generated traces, content
		// hashes, hit-rate profiles), so neither measured run pays for them.
		sweepMallocs(t, spec, false)
		local, remote := sweepMallocs(t, spec, false), sweepMallocs(t, spec, true)
		perJob := (float64(remote) - float64(local)) / float64(len(apps))
		t.Logf("scale %g: %d mallocs in-process, %d remote, %.0f extra per job", scale, local, remote, perJob)
		return perJob
	}
	small, large := extra(0.1), extra(0.5)
	// The plane's own cost is HTTP and JSON and repeats within a few
	// objects; a trace's share would be +130,000.
	if large > small+2000 {
		t.Errorf("the remote plane costs %.0f mallocs a job at scale 0.5 and %.0f at 0.1: it grows with the trace", large, small)
	}
}
