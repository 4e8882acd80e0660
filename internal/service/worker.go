package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/workload"
)

// Worker is the remote claimant of the lease board: the loop behind
// cmd/swiftsim-worker. It registers with a swiftsimd daemon, long-polls
// for job leases, builds each job's inputs from the names in the grant
// (checking that they derive the grant's key), simulates through the same
// function as the daemon's own executors, and publishes the canonical
// result bytes back by hash.
//
// Correctness never depends on the worker: results are canonical and
// byte-stable, so any worker (or the daemon re-running locally)
// produces identical bytes for a job key; the lease protocol only
// decides who does the work and commits it first. A worker that dies
// simply stops heartbeating and its leases expire.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	base   string

	// id is the current registration. The heartbeat loop replaces it when
	// the daemon no longer knows it; claim loops read it per request.
	id             atomic.Pointer[string]
	heartbeatEvery time.Duration // the daemon's cadence for that registration

	mu     sync.Mutex
	active map[string]context.CancelFunc // lease id → job cancel
	stats  WorkerStats

	// execHook, when set (tests only), runs after a job is claimed and
	// before its simulation — fault-injection tests hold a worker here
	// and kill it mid-job.
	execHook func(WireJob)
}

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// BaseURL is the daemon, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Name labels the worker in daemon-side accounting (defaults to
	// "worker").
	Name string
	// Jobs is the number of jobs executed concurrently (0 = 1).
	Jobs int
	// PollWait is the long-poll duration per claim request (0 = 25s).
	PollWait time.Duration
	// Client is the HTTP client (nil = a default with a timeout safely
	// above PollWait).
	Client *http.Client
}

// WorkerStats counts a worker's outcomes since Run started.
type WorkerStats struct {
	Claimed uint64 `json:"claimed"`
	Done    uint64 `json:"done"`
	Failed  uint64 `json:"failed"`
	// Lost counts leases the daemon revoked under this worker — expired
	// before a commit landed, or canceled — including commits rejected
	// by the fencing check.
	Lost uint64 `json:"lost"`
}

// NewWorker creates a Worker; Run starts it.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 25 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.PollWait + 30*time.Second}
	}
	return &Worker{
		cfg:    cfg,
		client: client,
		base:   strings.TrimRight(cfg.BaseURL, "/"),
		active: make(map[string]context.CancelFunc),
	}
}

// Stats snapshots the worker counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Run registers and executes jobs until ctx is canceled (returning nil)
// or the daemon turns the worker away (returning the error), as a daemon of
// another build does at the first registration, before any claim, or at
// the re-registration after it restarted. Transient
// connection failures — the daemon not up yet, a daemon restart — are
// retried with a jittered backoff, and a daemon that no longer knows this
// worker (it restarted, or aged the registration out) is registered with
// again at the next heartbeat. Jobs in flight keep running meanwhile: their
// commits are fenced by lease, not by worker id.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil || ctx.Err() != nil {
		return err
	}

	ctx, stop := context.WithCancel(ctx)
	defer stop()
	var rejected error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rejected = w.heartbeatLoop(ctx)
		stop() // a rejected re-registration ends the claim loops too
	}()
	for i := 0; i < w.cfg.Jobs; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); w.claimLoop(ctx) }()
	}
	wg.Wait()
	return rejected
}

// register obtains a worker id and the lease cadence, retrying transport
// errors until ctx ends. Its only error is a daemon that answered and said
// no, with the daemon's reason; a ctx that ends first returns nil with no
// registration made, and the caller's own ctx check tells the two apart.
func (w *Worker) register(ctx context.Context) error {
	var retry sleeper
	for {
		var resp struct {
			ID         string `json:"id"`
			LeaseTTLMS int64  `json:"lease_ttl_ms"`
			HeartbeatM int64  `json:"heartbeat_ms"`
			Error      string `json:"error"`
		}
		code, err := w.postJSON(ctx, "/v1/workers", map[string]string{"name": w.cfg.Name, "version": codeVersion}, &resp)
		switch {
		case err == nil && code == http.StatusOK && resp.ID != "":
			w.id.Store(&resp.ID)
			w.heartbeatEvery = time.Duration(resp.HeartbeatM) * time.Millisecond
			if w.heartbeatEvery <= 0 {
				w.heartbeatEvery = time.Duration(resp.LeaseTTLMS) * time.Millisecond / 3
			}
			if w.heartbeatEvery <= 0 {
				w.heartbeatEvery = time.Second
			}
			return nil
		case err == nil && resp.Error != "":
			// The daemon answered and said no: not a transient condition.
			return fmt.Errorf("service: worker registration rejected: HTTP %d: %s", code, resp.Error)
		case err == nil:
			return fmt.Errorf("service: worker registration rejected: HTTP %d", code)
		}
		if !retry.sleep(ctx, backoff()) {
			return nil
		}
	}
}

// backoff is a jittered retry delay; the jitter keeps a fleet that lost
// its daemon from reconnecting in lockstep.
func backoff() time.Duration {
	return 250*time.Millisecond + time.Duration(rand.IntN(500))*time.Millisecond
}

// sleeper is a reusable context-aware delay for retry loops. time.After
// allocates a fresh timer per attempt and keeps it live in the runtime
// until it fires even after the select has moved on — a worker whose
// daemon is down retries for the whole outage, churning timers the
// whole time. One sleeper per loop reuses a single timer instead.
type sleeper struct {
	t *time.Timer
}

// sleep waits for d or until ctx is done, reporting whether the full
// delay elapsed (false = canceled). Under this module's pre-1.23 timer
// semantics the cancel path must Stop the timer and drain the fired
// token if Stop lost the race, or the next Reset would return
// immediately off the stale token.
func (s *sleeper) sleep(ctx context.Context, d time.Duration) bool {
	if s.t == nil {
		s.t = time.NewTimer(d)
	} else {
		s.t.Reset(d)
	}
	select {
	case <-s.t.C:
		return true
	case <-ctx.Done():
		if !s.t.Stop() {
			<-s.t.C
		}
		return false
	}
}

// heartbeatLoop renews the worker's active leases on the daemon's
// cadence, cancels jobs whose lease the daemon revoked, and registers
// again when the daemon has forgotten the worker, returning the error if
// the daemon then turns it away. It is the only writer of the registration
// once Run's loops are up, so claim loops that all meet the same 404 cannot
// each register: they back off as on any claim error and pick the new id
// up. The pace is re-read every round because a restarted daemon may have a
// different lease TTL.
func (w *Worker) heartbeatLoop(ctx context.Context) error {
	var pace sleeper
	for pace.sleep(ctx, w.heartbeatEvery) {
		w.mu.Lock()
		leases := make([]string, 0, len(w.active))
		for id := range w.active {
			leases = append(leases, id)
		}
		w.mu.Unlock()
		var resp struct {
			Renewed []string `json:"renewed"`
			Lost    []string `json:"lost"`
		}
		code, err := w.postJSON(ctx, "/v1/workers/"+*w.id.Load()+"/heartbeat", map[string]any{"leases": leases}, &resp)
		if err == nil && code == http.StatusNotFound {
			if err := w.register(ctx); err != nil {
				return err
			}
		}
		if err != nil || code != http.StatusOK {
			continue // transient; the next round retries well within the TTL
		}
		for _, id := range resp.Lost {
			w.mu.Lock()
			cancel := w.active[id]
			if cancel != nil {
				w.stats.Lost++
			}
			w.mu.Unlock()
			if cancel != nil {
				cancel() // the job is no longer ours: stop burning cycles on it
			}
		}
	}
	return nil
}

// claimLoop long-polls for jobs and executes them one at a time.
func (w *Worker) claimLoop(ctx context.Context) {
	var retry sleeper
	for ctx.Err() == nil {
		job, ok, err := w.claim(ctx)
		if err != nil {
			if !retry.sleep(ctx, backoff()) {
				return
			}
			continue
		}
		if !ok {
			continue // long poll ran out; poll again
		}
		w.mu.Lock()
		w.stats.Claimed++
		w.mu.Unlock()
		w.execute(ctx, job)
	}
}

// claim issues one long-poll claim request.
func (w *Worker) claim(ctx context.Context) (WireJob, bool, error) {
	url := fmt.Sprintf("%s/v1/workers/%s/claim?wait=%s", w.base, *w.id.Load(), w.cfg.PollWait)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return WireJob{}, false, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return WireJob{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		io.Copy(io.Discard, resp.Body)
		return WireJob{}, false, nil
	case http.StatusOK:
		var job WireJob
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			return WireJob{}, false, fmt.Errorf("decoding claim: %w", err)
		}
		return job, true, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return WireJob{}, false, fmt.Errorf("claim: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
}

// execute runs one leased job end to end. A grant the worker must refuse
// (an application it cannot build, bad config text or options, inputs that
// derive another key) is reported like a simulation error; a canceled
// context (worker shutdown or revoked lease) is reported to no one — the
// lease protocol handles our disappearance.
func (w *Worker) execute(ctx context.Context, job WireJob) {
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.mu.Lock()
	w.active[job.LeaseID] = cancel
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.active, job.LeaseID)
		w.mu.Unlock()
	}()

	if hook := w.execHook; hook != nil {
		hook(job)
	}

	val, err := w.runJob(jctx, job)
	if jctx.Err() != nil {
		// Dying (or fenced off): report nothing and let the lease speak.
		return
	}
	if err != nil {
		w.count(func(s *WorkerStats) { s.Failed++ })
		w.report(ctx, "/v1/leases/"+job.LeaseID+"/error",
			map[string]any{"token": job.Token, "error": err.Error()})
		return
	}
	hash, err := w.publish(ctx, val)
	if err != nil {
		w.count(func(s *WorkerStats) { s.Failed++ })
		w.report(ctx, "/v1/leases/"+job.LeaseID+"/error",
			map[string]any{"token": job.Token, "error": fmt.Sprintf("publishing result: %v", err)})
		return
	}
	w.count(func(s *WorkerStats) { s.Done++ })
	w.report(ctx, "/v1/leases/"+job.LeaseID+"/result",
		map[string]any{"token": job.Token, "result": hash})
}

// runJob builds the job a grant names, checks that it is the job the
// daemon posted, and simulates it, returning its canonical result bytes.
func (w *Worker) runJob(ctx context.Context, wire WireJob) ([]byte, error) {
	app, err := workload.Generate(wire.App, wire.Scale)
	if err != nil {
		return nil, err
	}
	gpu, err := config.Parse(strings.NewReader(wire.Config))
	if err != nil {
		return nil, fmt.Errorf("parsing config: %w", err)
	}
	opts := wire.Opts
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("service: wire options: %w", err)
	}
	// The one check on the grant: the key covers the trace content, the
	// configuration, the options and the code version, so whichever of them
	// this worker sees differently, its bytes do not belong under wire.Key.
	if key := jobKey(app, gpu, opts); key != wire.Key {
		return nil, fmt.Errorf("service: grant is for job %s, its inputs derive %s here (another build, or altered inputs)", wire.Key, key)
	}
	return simulate(ctx, 0, &boardJob{
		job:     &job{app: app, gpu: gpu, opts: opts},
		timeout: time.Duration(wire.TimeoutMS) * time.Millisecond,
	})
}

// publish uploads the canonical result bytes and returns their hash.
func (w *Worker) publish(ctx context.Context, data []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/store", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := w.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var body struct {
		Hash string `json:"hash"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("store publish: HTTP %d (%v)", resp.StatusCode, err)
	}
	return body.Hash, nil
}

// report posts a commit (result or error) for a lease. A 409 means the
// lease is stale — the job was requeued or canceled while we worked; the
// work is discarded and only a counter moves.
func (w *Worker) report(ctx context.Context, path string, body map[string]any) {
	code, err := w.postJSON(ctx, path, body, nil)
	if err == nil && code == http.StatusConflict {
		w.count(func(s *WorkerStats) { s.Lost++ })
	}
}

// count mutates the stats under the lock.
func (w *Worker) count(f func(*WorkerStats)) {
	w.mu.Lock()
	f(&w.stats)
	w.mu.Unlock()
}

// postJSON posts a JSON body and decodes a JSON response into out (when
// non-nil): the daemon's answer on a 200, its {"error"} body otherwise, as
// far as that body decodes. It returns the status code; err is
// transport-level only.
func (w *Worker) postJSON(ctx context.Context, path string, body any, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil && resp.StatusCode == http.StatusOK {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}
