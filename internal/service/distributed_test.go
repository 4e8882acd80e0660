package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/sim"
	"swiftsim/internal/workload"
)

// The distributed test rig: a Remote-enabled daemon behind httptest and
// in-process Worker loops against it. Fault injection goes through the
// worker's execHook (hold a worker mid-job, then kill its context) and
// through raw HTTP requests impersonating stale workers.

// remoteConfig is the daemon configuration for distributed tests: short
// leases so worker-loss scenarios resolve in test time.
func remoteConfig(ttl time.Duration, retries int) Config {
	return Config{Remote: RemoteConfig{Enabled: true, LeaseTTL: ttl, MaxAttempts: retries}}
}

// startTestWorker runs a Worker against the daemon URL on its own
// context. The worker is stopped (and its Run awaited) at cleanup; tests
// that kill it earlier use the returned cancel and done channel.
func startTestWorker(t *testing.T, url string, hook func(WireJob)) (*Worker, context.CancelFunc, chan struct{}) {
	t.Helper()
	return startTestWorkerCfg(t, WorkerConfig{BaseURL: url}, hook)
}

// startTestWorkerCfg is startTestWorker for tests that tune the worker
// (cfg.BaseURL set; the name and, unless given, a short poll are filled in).
func startTestWorkerCfg(t *testing.T, cfg WorkerConfig, hook func(WireJob)) (*Worker, context.CancelFunc, chan struct{}) {
	t.Helper()
	cfg.Name = t.Name()
	if cfg.PollWait == 0 {
		cfg.PollWait = 200 * time.Millisecond
	}
	w := NewWorker(cfg)
	w.execHook = hook
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker Run: %v", err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("worker did not stop")
		}
	})
	return w, cancel, done
}

// localResults runs spec on a plain in-process service and returns its
// canonical result bytes — the reference every distributed run must
// reproduce byte for byte.
func localResults(t *testing.T, spec Spec) []byte {
	t.Helper()
	s := newService(t, Config{})
	sw, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sw)
	if st := sw.Status(); st.Failed != 0 {
		t.Fatalf("local reference run failed: %+v", st)
	}
	res, err := sw.Results()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDistributedEndToEnd is the happy-path acceptance scenario: a
// Remote daemon, two workers, a multi-job sweep executed entirely on the
// lease plane, canonical results byte-identical to a single-process run,
// and the NDJSON progress stream (with ?from= resume) relaying
// worker-executed job transitions.
func TestDistributedEndToEnd(t *testing.T) {
	spec := `{"apps":["BFS","SM"],"gpus":["RTX2080Ti"],"sims":["memory"],"scale":0.1}`
	want := localResults(t, Spec{Apps: []string{"BFS", "SM"}, GPUs: []string{"RTX2080Ti"}, Sims: []string{"memory"}, Scale: 0.1})

	_, srv := newHTTPService(t, remoteConfig(5*time.Second, 3))
	startTestWorker(t, srv.URL, nil)
	startTestWorker(t, srv.URL, nil)

	code, body := postSweep(t, srv, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %v", code, body)
	}
	id := body["id"].(string)
	st := waitHTTPDone(t, srv, id)
	if st.Ok != 2 || st.Failed != 0 || st.Cached != 0 {
		t.Fatalf("remote sweep status: %+v", st)
	}
	code, res := getBody(t, srv.URL+"/v1/sweeps/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("results: HTTP %d", code)
	}
	if !bytes.Equal(res, want) {
		t.Errorf("remote results differ from the single-process run:\nremote:\n%s\nlocal:\n%s", res, want)
	}

	// The progress relay: every job went pending → running → done through
	// remote execution, and the stream is resumable mid-way.
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	running, doneEv := 0, 0
	for i, ev := range events {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		switch {
		case ev.Type == "job" && ev.State == StateRunning:
			running++
		case ev.Type == "job" && ev.State == StateDone:
			doneEv++
		}
	}
	if running != 2 || doneEv != 2 {
		t.Errorf("event stream saw %d running / %d done transitions, want 2/2", running, doneEv)
	}
	last := events[len(events)-1]
	if last.Type != "sweep" || last.Done != 2 || last.Failed != 0 {
		t.Errorf("final event = %+v, want sweep tally 2/0", last)
	}
	_, tail := getBody(t, srv.URL+"/v1/sweeps/"+id+"/events?from="+fmt.Sprint(len(events)-1))
	var resumed Event
	if err := json.Unmarshal(bytes.TrimSpace(tail), &resumed); err != nil {
		t.Fatalf("resumed stream %q: %v", tail, err)
	}
	if resumed.Seq != len(events)-1 || resumed.Type != "sweep" {
		t.Errorf("resumed event = %+v, want the final sweep event", resumed)
	}

	// Identical resubmission is a pure cache hit: no lease round-trip.
	code, body = postSweep(t, srv, spec)
	if code != http.StatusAccepted {
		t.Fatalf("second POST = %d", code)
	}
	st2 := waitHTTPDone(t, srv, body["id"].(string))
	if st2.Cached != 2 {
		t.Errorf("resubmission not served from cache: %+v", st2)
	}
}

// TestDistributedWorkerKilledMidJob is the fault-injection acceptance
// scenario: worker 1 claims the job and dies mid-simulation (context
// killed, heartbeats stop); the lease expires and the job requeues;
// worker 2 — started only after the kill — completes the sweep; the
// dead worker's late commit for its stale lease is rejected by the
// fencing check; and the results are byte-identical to a single-process
// run.
func TestDistributedWorkerKilledMidJob(t *testing.T) {
	want := localResults(t, smallSpec())
	_, srv := newHTTPService(t, remoteConfig(300*time.Millisecond, 3))

	claimed := make(chan WireJob, 1)
	release := make(chan struct{})
	_, cancel1, done1 := startTestWorker(t, srv.URL, func(job WireJob) {
		claimed <- job
		<-release
	})

	code, body := postSweep(t, srv, specJSON)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %v", code, body)
	}
	id := body["id"].(string)

	var stale WireJob
	select {
	case stale = <-claimed:
	case <-time.After(30 * time.Second):
		t.Fatal("worker 1 never claimed the job")
	}

	// Kill worker 1 mid-job: cancel its context (stops heartbeats), then
	// unblock the hook so its goroutines can exit. The canceled worker
	// reports nothing — requeue is purely the daemon noticing the silence.
	cancel1()
	close(release)
	select {
	case <-done1:
	case <-time.After(10 * time.Second):
		t.Fatal("killed worker did not exit")
	}

	w2, _, _ := startTestWorker(t, srv.URL, nil)
	st := waitHTTPDone(t, srv, id)
	if st.Ok != 1 || st.Failed != 0 {
		t.Fatalf("sweep after worker loss: %+v", st)
	}
	code, res := getBody(t, srv.URL+"/v1/sweeps/"+id+"/results")
	if code != http.StatusOK || !bytes.Equal(res, want) {
		t.Errorf("requeued result differs from the single-process run (HTTP %d):\n%s", code, res)
	}
	if ws := w2.Stats(); ws.Done != 1 {
		t.Errorf("worker 2 stats = %+v, want the requeued job done here", ws)
	}

	// The presumed-dead worker's late result must lose to the fence. The
	// blob publishes fine (the store is content-addressed and dumb); the
	// commit is what gets rejected.
	hash := postStore(t, srv, []byte("late result from a zombie"))
	code, resp := postLeaseResult(t, srv, stale.LeaseID, stale.Token, hash)
	if code != http.StatusConflict {
		t.Errorf("stale commit = HTTP %d (%s), want 409", code, resp)
	}

	var stats Stats
	_, data := getBody(t, srv.URL+"/v1/stats")
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Remote.Expired < 1 {
		t.Errorf("stats.Remote.Expired = %d, want >= 1 (the killed worker's lease)", stats.Remote.Expired)
	}
	if stats.Remote.Stale < 1 {
		t.Errorf("stats.Remote.Stale = %d, want >= 1 (the rejected late commit)", stats.Remote.Stale)
	}
}

// TestDistributedRetryBudgetExhausted: when every worker that claims a
// job dies, the job fails terminally after MaxAttempts leases instead of
// requeueing forever.
func TestDistributedRetryBudgetExhausted(t *testing.T) {
	_, srv := newHTTPService(t, remoteConfig(200*time.Millisecond, 2))

	code, body := postSweep(t, srv, specJSON)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}

	// Two generations of workers, each claiming the job and dying mid-run
	// — exactly the MaxAttempts budget.
	for i := 0; i < 2; i++ {
		claimed := make(chan WireJob, 1)
		release := make(chan struct{})
		_, cancel, done := startTestWorker(t, srv.URL, func(job WireJob) {
			claimed <- job
			<-release
		})
		select {
		case <-claimed:
		case <-time.After(30 * time.Second):
			t.Fatalf("worker generation %d never claimed the job", i)
		}
		cancel() // heartbeats stop; the lease expires and requeues
		close(release)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("worker generation %d did not exit", i)
		}
	}

	st := waitHTTPDone(t, srv, body["id"].(string))
	if st.Failed != 1 || st.Ok != 0 {
		t.Fatalf("status = %+v, want the job terminally failed", st)
	}
	if e := st.Jobs[0].Error; !strings.Contains(e, "retry budget exhausted") {
		t.Errorf("job error = %q, want the retry-budget failure", e)
	}
}

// TestDistributedJobError: a deterministic simulation failure on the
// worker (an unmeetable per-job deadline) is reported back over the
// error endpoint and fails the job terminally — no requeue, the error
// text preserved.
func TestDistributedJobError(t *testing.T) {
	_, srv := newHTTPService(t, remoteConfig(5*time.Second, 3))
	w, _, _ := startTestWorker(t, srv.URL, nil)

	// A 1ns budget rides the wire as the 1ms floor; the scale-1.0 job
	// takes tens of milliseconds, so the deadline fails it deterministically.
	code, body := postSweep(t, srv, `{"apps":["BFS"],"gpus":["RTX2080Ti"],"sims":["memory"],"scale":1,"job_timeout":"1ns"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	st := waitHTTPDone(t, srv, body["id"].(string))
	if st.Failed != 1 || st.Ok != 0 {
		t.Fatalf("status = %+v, want 1 failed", st)
	}
	if st.Jobs[0].Error == "" {
		t.Error("failed job carries no error text")
	}
	if ws := w.Stats(); ws.Failed != 1 || ws.Done != 0 {
		t.Errorf("worker stats = %+v, want 1 failed", ws)
	}
}

// TestDistributedCorruptResultRerun is the store-integrity satellite
// end to end: a result blob corrupted on the daemon's disk is caught by
// the content hash on the next claim, evicted (blob and ref), and the
// job transparently re-runs on a worker — producing the same bytes.
func TestDistributedCorruptResultRerun(t *testing.T) {
	dir := t.TempDir()
	cfg := remoteConfig(5*time.Second, 3)
	cfg.CacheDir = dir
	_, srv := newHTTPService(t, cfg)
	startTestWorker(t, srv.URL, nil)

	code, body := postSweep(t, srv, specJSON)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	waitHTTPDone(t, srv, body["id"].(string))
	_, res1 := getBody(t, srv.URL+"/v1/sweeps/"+body["id"].(string)+"/results")

	refs, err := filepath.Glob(filepath.Join(dir, "*.ref"))
	if err != nil || len(refs) != 1 {
		t.Fatalf("refs = %v (err %v), want exactly one", refs, err)
	}
	hash, err := os.ReadFile(refs[0])
	if err != nil {
		t.Fatal(err)
	}
	blob := filepath.Join(dir, "blobs", string(hash)+".blob")
	if err := os.WriteFile(blob, []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}

	code, body = postSweep(t, srv, specJSON)
	if code != http.StatusAccepted {
		t.Fatalf("second POST = %d", code)
	}
	st := waitHTTPDone(t, srv, body["id"].(string))
	if st.Cached != 0 || st.Ok != 1 {
		t.Fatalf("status after corruption = %+v, want an uncached re-run", st)
	}
	_, res2 := getBody(t, srv.URL+"/v1/sweeps/"+body["id"].(string)+"/results")
	if !bytes.Equal(res1, res2) {
		t.Error("re-run after corruption produced different bytes")
	}
	var stats Stats
	_, data := getBody(t, srv.URL+"/v1/stats")
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Corrupt != 1 {
		t.Errorf("stats.Cache.Corrupt = %d, want 1", stats.Cache.Corrupt)
	}
}

// TestHTTPWorkerProtocol drives the worker-facing wire protocol with raw
// HTTP requests: registration, long-poll claims (both outcomes),
// heartbeat renewal, blob fetch/publish and result commit — pinning the
// status codes a non-Go worker implementation would program against.
func TestHTTPWorkerProtocol(t *testing.T) {
	_, srv := newHTTPService(t, remoteConfig(time.Minute, 3))

	// Register.
	var reg struct {
		ID         string `json:"id"`
		LeaseTTLMS int64  `json:"lease_ttl_ms"`
		Heartbeat  int64  `json:"heartbeat_ms"`
	}
	resp, err := http.Post(srv.URL+"/v1/workers", "application/json", strings.NewReader(`{"name":"proto"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("register: HTTP %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if reg.ID == "" || reg.LeaseTTLMS != time.Minute.Milliseconds() || reg.Heartbeat <= 0 || reg.Heartbeat >= reg.LeaseTTLMS {
		t.Fatalf("registration = %+v, want an id and a heartbeat cadence within the TTL", reg)
	}

	// An empty board long-polls then reports no content; unknown workers
	// and malformed waits are 404/400.
	if code := postCode(t, srv.URL+"/v1/workers/"+reg.ID+"/claim?wait=10ms", ""); code != http.StatusNoContent {
		t.Errorf("empty claim = %d, want 204", code)
	}
	if code := postCode(t, srv.URL+"/v1/workers/w999/claim?wait=10ms", ""); code != http.StatusNotFound {
		t.Errorf("unknown worker claim = %d, want 404", code)
	}
	if code := postCode(t, srv.URL+"/v1/workers/"+reg.ID+"/claim?wait=banana", ""); code != http.StatusBadRequest {
		t.Errorf("bad wait claim = %d, want 400", code)
	}
	if code := postCode(t, srv.URL+"/v1/workers/w999/heartbeat", `{"leases":[]}`); code != http.StatusNotFound {
		t.Errorf("unknown worker heartbeat = %d, want 404", code)
	}

	// Submit a sweep; its one job lands on the board and the claim
	// delivers a fully populated wire descriptor.
	code, body := postSweep(t, srv, specJSON)
	if code != http.StatusAccepted {
		t.Fatalf("POST sweep = %d", code)
	}
	id := body["id"].(string)
	resp, err = http.Post(srv.URL+"/v1/workers/"+reg.ID+"/claim?wait=10s", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var job WireJob
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("claim: HTTP %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if job.Key == "" || job.LeaseID == "" || job.Token != 1 || job.Attempt != 0 {
		t.Fatalf("wire job = %+v, want key, lease, token 1, attempt 0", job)
	}
	if job.App != "BFS" || job.GPU != "RTX2080Ti" || job.Sim != sim.Memory.String() || job.Opts.Kind != sim.Memory {
		t.Errorf("wire job labels = %s/%s/%s kind %d", job.App, job.GPU, job.Sim, job.Opts.Kind)
	}
	// The grant names its inputs, and they are the daemon's: the preset's
	// own text, and a trace that derives the grant's key.
	preset, _ := config.Preset("RTX2080Ti")
	if job.Scale != 0.1 || job.Config != string(config.Marshal(preset)) {
		t.Fatalf("wire job inputs = scale %g, config %q; want 0.1 and the preset's text", job.Scale, job.Config)
	}
	app, err := workload.Generate(job.App, job.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if key := jobKey(newKeyMemo(), app, preset, job.Opts); key != job.Key {
		t.Errorf("wire job inputs derive key %s, the grant says %s", key, job.Key)
	}

	// Blob fetch: unknown and malformed hashes read as 404 (a published
	// result is fetched below).
	if code, _ := getBody(t, srv.URL+"/v1/store/"+BlobHash([]byte("no such blob"))); code != http.StatusNotFound {
		t.Errorf("missing blob = %d, want 404", code)
	}
	if code, _ := getBody(t, srv.URL+"/v1/store/not-a-hash"); code != http.StatusNotFound {
		t.Errorf("malformed hash = %d, want 404", code)
	}

	// Heartbeat renews the held lease and flags unknown ones as lost.
	resp, err = http.Post(srv.URL+"/v1/workers/"+reg.ID+"/heartbeat", "application/json",
		strings.NewReader(`{"leases":["`+job.LeaseID+`","l-bogus"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var hb struct {
		Renewed []string `json:"renewed"`
		Lost    []string `json:"lost"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat: HTTP %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if len(hb.Renewed) != 1 || hb.Renewed[0] != job.LeaseID || len(hb.Lost) != 1 {
		t.Errorf("heartbeat = %+v", hb)
	}

	// Commit: publish bytes, reference them by hash. Committing a hash
	// the store has never seen is a 404 before the lease is touched.
	if code, resp := postLeaseResult(t, srv, job.LeaseID, job.Token, BlobHash([]byte("unpublished"))); code != http.StatusNotFound {
		t.Errorf("commit of unpublished blob = %d (%s), want 404", code, resp)
	}
	result := []byte("protocol-test canonical bytes\n")
	hash := postStore(t, srv, result)
	if code, data := getBody(t, srv.URL+"/v1/store/"+hash); code != http.StatusOK || !bytes.Equal(data, result) {
		t.Errorf("published blob fetch: HTTP %d, %q", code, data)
	}
	if code, resp := postLeaseResult(t, srv, job.LeaseID, job.Token, hash); code != http.StatusOK {
		t.Fatalf("commit = %d (%s)", code, resp)
	}
	st := waitHTTPDone(t, srv, id)
	if st.Ok != 1 {
		t.Fatalf("status after commit: %+v", st)
	}
	code, res := getBody(t, srv.URL+"/v1/sweeps/"+id+"/results")
	if code != http.StatusOK || !bytes.Equal(res, result) {
		t.Errorf("results = HTTP %d %q, want the committed bytes", code, res)
	}

	// Exactly-once: the same commit again, and an error report for the
	// resolved lease, are both stale.
	if code, _ := postLeaseResult(t, srv, job.LeaseID, job.Token, hash); code != http.StatusConflict {
		t.Errorf("double commit = %d, want 409", code)
	}
	if code := postCode(t, srv.URL+"/v1/leases/"+job.LeaseID+"/error", `{"token":1,"error":"too late"}`); code != http.StatusConflict {
		t.Errorf("late error report = %d, want 409", code)
	}
}

// postCode posts a JSON body and returns just the status code.
func postCode(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// postStore publishes bytes into the daemon's blob store.
func postStore(t *testing.T, srv *httptest.Server, data []byte) string {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/store", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Hash string `json:"hash"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("store publish: HTTP %d, %v", resp.StatusCode, err)
	}
	return body.Hash
}

// postLeaseResult commits a result hash for a lease and returns the
// status code and body.
func postLeaseResult(t *testing.T, srv *httptest.Server, leaseID string, token uint64, hash string) (int, string) {
	t.Helper()
	payload := fmt.Sprintf(`{"token":%d,"result":%q}`, token, hash)
	resp, err := http.Post(srv.URL+"/v1/leases/"+leaseID+"/result", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, strings.TrimSpace(buf.String())
}
