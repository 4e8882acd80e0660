package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/obs"
	"swiftsim/internal/sim"
)

// This file is the daemon's job table: the lease board. Every cache miss of
// every sweep is posted here and nowhere else, and "where it runs" is a
// property of who claims it. There are two kinds of claimant and one state
// machine:
//
//   - the daemon's own Config.Threads executors (service.go), registered as
//     one in-process worker. They claim by direct call and simulate from
//     the job's in-memory inputs: no HTTP, no blob store.
//   - swiftsim-worker processes (worker.go) claiming over HTTP. Their grant
//     (Wire) names its inputs: the catalog application and scale, the GPU
//     configuration text and the options, about 2 KB. The worker builds the
//     trace itself and proves it built the daemon's job by deriving the same
//     cache key. Inputs travel by name and results by hash: the Store never
//     sees a trace.
//
// Lease state machine (per job):
//
//	pending ──claim──▶ leased ──fulfill/fail──▶ done
//	   ▲                  │
//	   └──lease expiry────┘   (attempts++, until the retry budget;
//	                           exhausting it is a terminal failure)
//
// Ownership is a lease, not a fact: a remote worker owns a job only while
// its heartbeats keep the lease's deadline in the future. A worker that
// dies mid-job simply stops heartbeating; the reaper requeues the job and
// another claimant picks it up. Every grant carries a fencing token — the
// job's monotonically increasing grant counter — and a fulfill must
// present the token of the grant it is completing, so a presumed-dead
// worker's late result for an already-requeued job is rejected instead
// of double-committing (exactly-once result commitment; the bytes are
// identical by construction, but the accounting must fire once).
//
// An in-process grant is never reaped: its executor shares the board's
// fate, so there is no silent death for a TTL to detect, and a Detailed
// job routinely outlives one. It carries the job's context instead, which
// Cancel and Close cancel, so a revoked job stops at the engine's next
// context poll rather than at a heartbeat; its late commit then loses to
// the fence like any other.

// Default lease plane tuning (overridable via RemoteConfig).
const (
	defaultLeaseTTL     = 10 * time.Second
	defaultLeaseRetries = 3
	// forgetAfterTTLs is how many lease TTLs of silence age a remote worker
	// out of the registry. A live worker heartbeats three times per TTL even
	// when idle, so only dead ones get here; one that was merely cut off
	// is told so by its next heartbeat (404) and registers again.
	forgetAfterTTLs = 4
)

// Lease plane sentinel errors (HTTP mapping in http.go).
var (
	// ErrStaleLease rejects a fulfill/fail for a lease that is no longer
	// current — expired and requeued, canceled, superseded by a newer
	// grant, or already resolved (409).
	ErrStaleLease = errors.New("service: stale lease")
	// ErrUnknownWorker rejects requests from unregistered worker ids (404).
	ErrUnknownWorker = errors.New("service: unknown worker")
	// ErrRetriesExhausted fails a job whose every lease expired without a
	// result.
	ErrRetriesExhausted = errors.New("service: job retry budget exhausted (worker leases kept expiring)")
	// errBoardClosed resolves jobs still outstanding when the board shuts
	// down.
	errBoardClosed = errors.New("service: job board closed")
)

// WireJob is the job descriptor a remote worker receives from a successful
// claim: the job's identity, its lease, and its inputs by name. It is
// self-contained, so a claim is the only request a worker makes before it
// simulates. It then publishes the canonical result bytes via POST /v1/store
// and commits with POST /v1/leases/{id}/result.
type WireJob struct {
	// Key is the job's cache key — its identity across the plane, and the
	// check on everything below: jobKey folds in the trace content, the GPU
	// configuration, the options and the code version, so a worker that
	// derives another key from this grant (an app its build generates
	// differently, altered text, another commit) has some other job in hand
	// and must report that instead of a result.
	Key string `json:"key"`
	// LeaseID and Token identify this grant. Token is the fencing token:
	// it increments on every grant of the job, and a commit must present
	// the token it was granted with.
	LeaseID string `json:"lease_id"`
	Token   uint64 `json:"token"`
	// Attempt counts prior expired leases of this job.
	Attempt int `json:"attempt"`
	// App and Scale name the trace: the worker builds it with
	// workload.Generate(App, Scale), as the daemon's resolve did.
	App   string  `json:"app"`
	Scale float64 `json:"scale"`
	// Config is the GPU configuration as config.Marshal text (about 1 KB),
	// which config.Parse reads back.
	Config string `json:"config"`
	// GPU and Sim label the job for logs; Config and Opts say the same.
	GPU string `json:"gpu"`
	Sim string `json:"sim"`
	// Opts is the job's simulator options, in sim.Options' own JSON form
	// (its process-local hooks do not travel). The object's shape follows
	// the struct; the worker validates what it decodes, and a build whose
	// struct differs fails the Key check.
	Opts sim.Options `json:"opts"`
	// TimeoutMS bounds the job's wall-clock time on the worker (0 = none).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// LeaseTTLMS is the lease duration; the worker must heartbeat well
	// within it (the register response suggests a cadence).
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

// BoardStats is the lease plane's observability snapshot.
type BoardStats struct {
	// Workers is the number of live claimants: remote workers (the reaper
	// forgets the silent ones) plus, unless the daemon runs -remote, its
	// own executor pool as one. Pending and Leased count jobs waiting for a
	// claim and jobs under a live grant.
	Workers int `json:"workers"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	// Expired counts leases the reaper requeued; Stale counts rejected
	// late commits (fencing violations); Exhausted counts jobs failed on
	// the retry budget.
	Expired   uint64 `json:"expired"`
	Stale     uint64 `json:"stale"`
	Exhausted uint64 `json:"exhausted"`
}

// boardJob is one job on the board: its identity (the embedded job's cache
// key), what a claimant needs to simulate it, and its place in the state
// machine. A job is pending while it sits in the queue, leased while lease
// is set, and done once it has left the job table; done fires exactly once.
type boardJob struct {
	// The resolved job and what its sweep adds to it. In-process claimants
	// simulate from these directly; Wire names them for remote ones.
	*job
	timeout time.Duration // wall-clock budget (0 = none)
	// trace is the sweep's tracer (nil records nothing): the job records
	// at index in that pid block, and its wall-clock span counts from
	// start, the sweep's. Process-local, so remote jobs run untraced.
	trace *obs.Tracer
	index int
	start time.Time

	attempt int
	token   uint64 // fencing counter, incremented at each grant
	lease   *lease // current grant when leased

	// onStart fires at most once per grant (a requeued job "starts"
	// again); done fires exactly once with the job's terminal outcome.
	// Both are invoked outside the board lock.
	onStart func(worker string)
	done    func(val []byte, err error)
}

// lease is one live grant of a job to a worker. Everything but deadline is
// fixed at the grant, so claimants read it without the board lock.
type lease struct {
	id      string
	job     *boardJob
	worker  string
	token   uint64
	attempt int
	// deadline bounds a remote grant and is pushed out by heartbeats. An
	// in-process grant is not reaped; it has ctx, the job's context, which
	// cancel ends.
	deadline time.Time
	ctx      context.Context
	cancel   context.CancelFunc
}

// boardWorker is a registered claimant: a remote worker process, or
// (local) the daemon's own executor pool.
type boardWorker struct {
	lastSeen time.Time
	local    bool
}

// board is the lease-granting job dispatcher. All state is guarded by
// mu; long-poll claims block on cond (broadcast whenever the queue gains
// a job or the board closes).
type board struct {
	ttl      time.Duration
	maxTries int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*boardJob // pending, FIFO; requeues go to the front
	jobs    map[string]*boardJob
	leases  map[string]*lease
	workers map[string]*boardWorker
	nextID  int
	stats   BoardStats
	closed  bool

	stopReaper chan struct{}
	reaperDone chan struct{}
}

// newBoard starts a board and its lease reaper.
func newBoard(ttl time.Duration, maxTries int) *board {
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	if maxTries <= 0 {
		maxTries = defaultLeaseRetries
	}
	b := &board{
		ttl:        ttl,
		maxTries:   maxTries,
		jobs:       make(map[string]*boardJob),
		leases:     make(map[string]*lease),
		workers:    make(map[string]*boardWorker),
		stopReaper: make(chan struct{}),
		reaperDone: make(chan struct{}),
	}
	b.cond = sync.NewCond(&b.mu)
	go b.reaper()
	return b
}

// reaper periodically requeues jobs whose lease deadline passed. The
// interval divides the TTL so an expiry is noticed within a fraction of
// it, with a floor for very short test TTLs.
func (b *board) reaper() {
	defer close(b.reaperDone)
	interval := b.ttl / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-b.stopReaper:
			return
		case now := <-tick.C:
			b.reap(now)
		}
	}
}

// reap requeues (or terminally fails) every job whose remote lease expired
// before now, and forgets remote workers silent for forgetAfterTTLs.
// Terminal done callbacks run outside the lock.
func (b *board) reap(now time.Time) {
	var failed []*boardJob
	b.mu.Lock()
	for _, l := range b.leases {
		if l.cancel != nil || !l.deadline.Before(now) {
			continue
		}
		b.release(l)
		j := l.job
		j.attempt++
		b.stats.Expired++
		if j.attempt >= b.maxTries {
			b.stats.Exhausted++
			delete(b.jobs, j.key)
			failed = append(failed, j)
			continue
		}
		// Requeue at the front: an interrupted job has already waited a
		// full lease, so it should not requeue behind a long backlog.
		b.queue = append([]*boardJob{j}, b.queue...)
	}
	for id, w := range b.workers {
		if !w.local && now.Sub(w.lastSeen) > forgetAfterTTLs*b.ttl {
			delete(b.workers, id)
		}
	}
	if len(b.queue) > 0 {
		b.cond.Broadcast()
	}
	b.mu.Unlock()
	for _, j := range failed {
		j.done(nil, fmt.Errorf("%w: job %s gave out %d lease(s), none fulfilled", ErrRetriesExhausted, j.key, j.attempt))
	}
}

// Register adds a worker and returns its id. local registers the daemon's
// own executor pool: an in-process worker whose grants never expire. Every
// job occupies one executor, so an executor blocked in Claim is the free
// slot and the pool's size is the daemon's thread budget.
func (b *board) Register(local bool) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	id := fmt.Sprintf("w%d", b.nextID)
	b.workers[id] = &boardWorker{lastSeen: time.Now(), local: local}
	return id
}

// Enqueue posts a job to the board. The job's done callback will fire
// exactly once, from a board goroutine, an executor or an HTTP handler.
func (b *board) Enqueue(j *boardJob) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		j.done(nil, errBoardClosed)
		return
	}
	b.jobs[j.key] = j
	b.queue = append(b.queue, j)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Claim blocks until the queue has a job, and grants its head to workerID,
// or until ctx expires (nil, nil: no job before the wait ran out).
func (b *board) Claim(ctx context.Context, workerID string) (*lease, error) {
	b.mu.Lock()
	w, ok := b.workers[workerID]
	if !ok {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorker, workerID)
	}
	for !b.closed && len(b.queue) == 0 {
		if ctx.Err() != nil {
			b.mu.Unlock()
			return nil, nil
		}
		stop := context.AfterFunc(ctx, func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			b.cond.Broadcast()
		})
		b.cond.Wait()
		stop()
	}
	if b.closed {
		b.mu.Unlock()
		return nil, errBoardClosed
	}
	j := b.queue[0]
	// Clear the vacated slot: the backing array outlives the reslice, and
	// a resolved job's closures pin its whole sweep.
	b.queue[0] = nil
	b.queue = b.queue[1:]
	t := time.Now()
	w.lastSeen = t
	j.token++
	b.nextID++
	l := &lease{
		id: fmt.Sprintf("l%d", b.nextID), job: j, worker: workerID,
		token: j.token, attempt: j.attempt, deadline: t.Add(b.ttl),
	}
	if w.local {
		l.ctx, l.cancel = context.WithCancel(context.Background())
	}
	j.lease = l
	b.leases[l.id] = l
	onStart := j.onStart
	b.mu.Unlock()
	if onStart != nil {
		onStart(workerID)
	}
	return l, nil
}

// release ends grant l (the caller holds mu): its lease id stops resolving
// and an in-process grant's simulation is stopped.
func (b *board) release(l *lease) {
	delete(b.leases, l.id)
	l.job.lease = nil
	if l.cancel != nil {
		l.cancel()
	}
}

// Wire returns the descriptor a remote claimant receives for grant l: the
// job's identity, its inputs by name, and the grant's lease fields.
func (b *board) Wire(l *lease) WireJob {
	j := l.job
	timeoutMS := j.timeout.Milliseconds()
	if j.timeout > 0 && timeoutMS == 0 {
		// A sub-millisecond budget must stay a budget: truncating it to 0
		// would read as "no timeout" on the worker.
		timeoutMS = 1
	}
	return WireJob{
		Key: j.key, LeaseID: l.id, Token: l.token, Attempt: l.attempt,
		App: j.app.Name, Scale: j.scale, Config: string(config.Marshal(j.gpu)),
		GPU: j.gpu.Name, Sim: j.sim, Opts: j.opts,
		TimeoutMS: timeoutMS, LeaseTTLMS: b.ttl.Milliseconds(),
	}
}

// Heartbeat renews the given leases for workerID and reports which of
// them are no longer current (expired and requeued, canceled, or
// resolved) so the worker can abandon the corresponding jobs.
func (b *board) Heartbeat(workerID string, leaseIDs []string) (renewed, lost []string, err error) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	w, ok := b.workers[workerID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownWorker, workerID)
	}
	w.lastSeen = now
	for _, id := range leaseIDs {
		l, ok := b.leases[id]
		if !ok || l.worker != workerID {
			lost = append(lost, id)
			continue
		}
		l.deadline = now.Add(b.ttl)
		renewed = append(renewed, id)
	}
	return renewed, lost, nil
}

// resolveLease validates a commit attempt against the fencing rules and,
// when valid, marks the job done. It returns the job for the caller to
// fire done on (outside the lock).
func (b *board) resolveLease(leaseID string, token uint64) (*boardJob, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	l, ok := b.leases[leaseID]
	if !ok || l.token != token || l.job.lease != l {
		b.stats.Stale++
		return nil, fmt.Errorf("%w: lease %s token %d is not the current grant", ErrStaleLease, leaseID, token)
	}
	b.release(l)
	delete(b.jobs, l.job.key)
	return l.job, nil
}

// Fulfill commits a worker's result for its lease. Exactly-once: the
// first valid commit wins; anything else is ErrStaleLease.
func (b *board) Fulfill(leaseID string, token uint64, val []byte) error {
	j, err := b.resolveLease(leaseID, token)
	if err != nil {
		return err
	}
	j.done(val, nil)
	return nil
}

// Fail commits a claimant-reported job failure (a simulation error, not a
// worker death — those surface as lease expiries). Failures are
// deterministic re-simulation errors, so they are terminal rather than
// requeued.
func (b *board) Fail(leaseID string, token uint64, cause error) error {
	j, err := b.resolveLease(leaseID, token)
	if err != nil {
		return err
	}
	j.done(nil, cause)
	return nil
}

// Cancel terminally resolves a job (FailFast skips) with err. A pending
// job is dequeued; a leased job's lease is invalidated so the claimant's
// eventual commit is rejected — a remote worker's next heartbeat reports
// the lease lost, an in-process simulation is stopped through its context.
// Unknown keys (already resolved) are ignored.
func (b *board) Cancel(key string, err error) {
	b.mu.Lock()
	j, ok := b.jobs[key]
	if !ok {
		b.mu.Unlock()
		return
	}
	delete(b.jobs, key)
	if j.lease == nil { // pending: dequeue it
		for i, q := range b.queue {
			if q == j {
				last := len(b.queue) - 1
				copy(b.queue[i:], b.queue[i+1:])
				b.queue[last] = nil // as in Claim: do not retain the job
				b.queue = b.queue[:last]
				b.cond.Broadcast() // as in Claim: the head may have changed
				break
			}
		}
	}
	if j.lease != nil {
		b.release(j.lease)
	}
	b.mu.Unlock()
	j.done(nil, err)
}

// Close shuts the board down: claims unblock, every unresolved job is
// failed with errBoardClosed (wrapping cause when non-nil), in-process
// simulations are stopped, and the reaper exits. Idempotent.
func (b *board) Close(cause error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	err := errBoardClosed
	if cause != nil {
		err = fmt.Errorf("%w: %w", errBoardClosed, cause)
	}
	unresolved := b.jobs // a resolved job has left the table
	for _, l := range b.leases {
		b.release(l)
	}
	b.jobs = make(map[string]*boardJob)
	b.queue = nil
	b.cond.Broadcast()
	b.mu.Unlock()
	close(b.stopReaper)
	<-b.reaperDone
	for _, j := range unresolved {
		j.done(nil, err)
	}
}

// Stats snapshots the board counters.
func (b *board) Stats() BoardStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	st.Workers = len(b.workers)
	st.Pending = len(b.queue)
	st.Leased = len(b.leases)
	return st
}
