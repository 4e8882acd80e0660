// Package service is the long-running sweep service behind cmd/swiftsimd:
// clients submit sweep specifications (applications × GPU presets ×
// simulator kinds), poll or stream per-job progress, and fetch results as
// the byte-stable canonical metric renderings of internal/regress.
//
// Three properties distinguish it from a one-shot cmd/sweep run:
//
//   - Persistent caching: every job's canonical result is stored on disk
//     keyed by (code version, GPU config, trace content hash, simulator
//     options) — see key.go — so a repeated submission is served without
//     simulating, across restarts. In-process, identical concurrent jobs
//     are single-flighted: one simulates, the rest wait for its value.
//   - Admission control: the total number of queued-plus-running jobs is
//     bounded by Config.QueueDepth. A submission that would exceed it is
//     shed immediately (ErrQueueFull → HTTP 429) instead of building an
//     unbounded backlog.
//   - Graceful drain: Close stops admissions (ErrDraining → HTTP 503),
//     lets admitted sweeps finish, and hard-cancels in-flight simulations
//     only when its context expires.
//
// Execution has one plane: every cache miss is posted to the lease board
// (lease.go) and simulated by whoever claims it — the daemon's own
// executors, or swiftsim-worker processes over HTTP.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/obs"
	"swiftsim/internal/regress"
	"swiftsim/internal/runner"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// Config tunes a Service.
type Config struct {
	// CacheDir is the persistent result cache directory. It is required:
	// running without persistence is not supported, so New fails on ""
	// (tests use t.TempDir()).
	CacheDir string
	// QueueDepth bounds queued-plus-running jobs across all sweeps
	// (0 = 64). A submission whose jobs would exceed it is rejected with
	// ErrQueueFull; a single sweep larger than the whole depth can never
	// be admitted.
	QueueDepth int
	// Threads is the daemon's executor count: how many jobs its own
	// claimants run at a time across all sweeps (0 = NumCPU). Unused when
	// Remote.Enabled.
	Threads int
	// MaxJobTimeout caps (and defaults) the per-job wall-clock budget a
	// spec may request (0 = no cap, no default).
	MaxJobTimeout time.Duration
	// Defaults is what every job's options are overlaid on
	// (sim.Options.WithDefaults): a spec that leaves epoch_cycles zero, or
	// sample unset, takes the daemon's value. New
	// validates it like any other options. Sampled and relaxed-epoch results
	// legitimately differ from exact ones, so the effective values — not
	// who supplied them — are part of every job's cache key.
	Defaults sim.Options
	// Trace is the daemon-wide observability handle (nil records
	// nothing). Each sweep gets its own block of trace pids and the
	// recorder is flushed after every finished sweep.
	Trace *obs.Tracer
	// Remote tunes the lease board for claimants outside this process.
	Remote RemoteConfig
}

// RemoteConfig tunes the lease board (lease.go) as swiftsim-worker
// processes see it.
type RemoteConfig struct {
	// Enabled means only "this daemon starts no executors of its own":
	// every job waits for a swiftsim-worker to claim it. With it off the
	// daemon's executors claim from the same board, and registered workers
	// may claim alongside them.
	Enabled bool
	// LeaseTTL is how long a remotely claimed job stays owned without a
	// heartbeat before it is requeued to another claimant (0 = 10s).
	LeaseTTL time.Duration
	// MaxAttempts bounds how many leases a job may burn through before
	// it fails terminally (0 = 3).
	MaxAttempts int
}

// Sentinel errors mapped to HTTP statuses by http.go.
var (
	// ErrQueueFull sheds a submission that would exceed QueueDepth (429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects submissions after Close began (503).
	ErrDraining = errors.New("service: draining, not accepting sweeps")
	// ErrNotFound reports an unknown sweep id (404).
	ErrNotFound = errors.New("service: no such sweep")
)

// Spec is a sweep submission. Zero-valued fields get defaults: all
// catalog applications, the three GPU presets, the memory simulator,
// scale 0.25.
type Spec struct {
	Apps  []string `json:"apps,omitempty"`
	GPUs  []string `json:"gpus,omitempty"`
	Sims  []string `json:"sims,omitempty"`
	Scale float64  `json:"scale,omitempty"`
	// JobTimeout is a Go duration string ("30s"); clamped to the
	// service's MaxJobTimeout.
	JobTimeout string `json:"job_timeout,omitempty"`
	// FailFast cancels the sweep's remaining jobs after its first
	// failure; never-started jobs finish as "skipped".
	FailFast bool `json:"fail_fast,omitempty"`
	// EpochCycles is the relaxed-sync epoch length (0 = the daemon's
	// -epoch-cycles default; 1 = exact). A value > 1 legitimately shifts
	// results, so it is part of the cache key.
	EpochCycles int `json:"epoch_cycles,omitempty"`
	// Sample runs every job of the sweep in sampled execution mode:
	// repeated kernel launches replay a recorded outcome and each launch
	// simulates only a representative block subset, with the remainder
	// extrapolated analytically. Sampled cycles legitimately differ from
	// exact ones, so the effective sampling parameters are part of the
	// cache key. When unset, the daemon's -sample default applies (and
	// the tuning fields below must be zero).
	Sample bool `json:"sample,omitempty"`
	// SampleFrac is the fraction of post-first-wave blocks to simulate
	// per launch, in (0,1); 0 = the simulator default.
	SampleFrac float64 `json:"sample_frac,omitempty"`
	// SampleStride re-simulates every Nth repeated launch; 0 = the
	// simulator default, 1 disables launch replay.
	SampleStride int `json:"sample_stride,omitempty"`
	// SampleSeed drives the representative-block selection; equal seeds
	// (and parameters) give bit-identical sampled results.
	SampleSeed uint64 `json:"sample_seed,omitempty"`
}

// Job states reported in statuses and progress events.
const (
	StatePending = "pending"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	StateSkipped = "skipped"
)

// JobStatus is the externally visible state of one job of a sweep.
type JobStatus struct {
	App   string `json:"app"`
	GPU   string `json:"gpu"`
	Sim   string `json:"sim"`
	State string `json:"state"`
	// Cached reports the job was served without simulating here: from
	// the persistent cache or by joining another sweep's identical job.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Event is one line of a sweep's progress stream. Type "job" events carry
// a job transition; the single trailing "sweep" event carries the final
// tally.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "job" | "sweep"
	// Job fields (Type "job").
	Job    int    `json:"job,omitempty"`
	App    string `json:"app,omitempty"`
	GPU    string `json:"gpu,omitempty"`
	Sim    string `json:"sim,omitempty"`
	State  string `json:"state,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Tally fields (Type "sweep", and maintained on job events too).
	Done   int `json:"done,omitempty"`
	Failed int `json:"failed,omitempty"`
	Total  int `json:"total,omitempty"`
}

// Status is a sweep's poll response.
type Status struct {
	ID     string      `json:"id"`
	Done   bool        `json:"done"`
	Total  int         `json:"total"`
	Ok     int         `json:"ok"`
	Failed int         `json:"failed"`
	Cached int         `json:"cached"`
	Jobs   []JobStatus `json:"jobs"`
}

// job is one resolved (app, gpu, sim) cell of a sweep. app is
// workload.Generate(app.Name, scale): a remote grant names it that way.
type job struct {
	app   *trace.App
	scale float64
	gpu   config.GPU
	opts  sim.Options
	sim   string // report name (sim.Kind.String())
	key   string
}

// Sweep is one submitted sweep. All mutable state is guarded by mu;
// waiters block on cond (broadcast on every event and at completion).
type Sweep struct {
	id         string
	jobs       []job
	jobTimeout time.Duration
	failFast   bool
	trace      *obs.Tracer // nil records nothing

	mu     sync.Mutex
	cond   *sync.Cond
	status []JobStatus
	events []Event
	result [][]byte // canonical bytes per succeeded job
	okJobs int
	failed int
	done   bool
}

// ID returns the sweep's identifier.
func (sw *Sweep) ID() string { return sw.id }

// Service is the sweep service. Create with New, serve over HTTP with
// NewHandler, stop with Close.
type Service struct {
	cfg   Config
	cache *Cache
	store *Store // the cache's blob store, served over /v1/store
	board *board // the job table: every cache miss is posted here

	ctx    context.Context // canceled only by hard drain
	cancel context.CancelFunc
	wg     sync.WaitGroup // running sweeps
	execs  sync.WaitGroup // the daemon's own executors

	mu       sync.Mutex
	sweeps   map[string]*Sweep
	finished []string // ids of finished sweeps still in sweeps, oldest first
	nextID   int
	nextPid  int
	pending  int // queued + running jobs, the admission-control gauge
	shed     uint64
	draining bool

	// execHook, when set (tests only), runs at the top of each sweep's
	// execution — before any job starts — so tests can hold a sweep in
	// a known state.
	execHook func(*Sweep)
	// runHook, when set (tests only), runs in an executor between its
	// claim and the simulation, as Worker.execHook does in a worker.
	runHook func(*lease)
}

// maxFinishedSweeps is how many finished sweeps (status, events, result
// bytes) stay addressable; older ones answer ErrNotFound. Unfinished
// sweeps are never evicted, and QueueDepth bounds those.
const maxFinishedSweeps = 256

// Stats is the service-wide observability snapshot.
type Stats struct {
	Cache       CacheStats `json:"cache"`
	Store       StoreStats `json:"store"`
	Remote      BoardStats `json:"remote"`
	PendingJobs int        `json:"pending_jobs"`
	Sweeps      int        `json:"sweeps"`
	Shed        uint64     `json:"shed"`
}

// New starts a Service and, unless cfg.Remote.Enabled, its executors.
func New(cfg Config) (*Service, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Threads <= 0 {
		cfg.Threads = runtime.NumCPU()
	}
	if err := validate(cfg.Defaults); err != nil {
		return nil, fmt.Errorf("service: daemon defaults: %w", err)
	}
	if cfg.Remote.LeaseTTL < 0 || cfg.Remote.MaxAttempts < 0 {
		return nil, fmt.Errorf("service: negative remote tuning (lease_ttl %v, max_attempts %d)", cfg.Remote.LeaseTTL, cfg.Remote.MaxAttempts)
	}
	cache, err := NewCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:    cfg,
		cache:  cache,
		store:  cache.BlobStore(),
		board:  newBoard(cfg.Remote.LeaseTTL, cfg.Remote.MaxAttempts),
		ctx:    ctx,
		cancel: cancel,
		sweeps: make(map[string]*Sweep),
	}
	if !cfg.Remote.Enabled {
		id := s.board.Register(true)
		for slot := 0; slot < cfg.Threads; slot++ {
			s.execs.Add(1)
			go s.executor(id, slot)
		}
	}
	return s, nil
}

// Submit validates and admits a sweep and starts it. The sweep runs
// asynchronously; follow it with Status / WaitEvents / Results.
func (s *Service) Submit(spec Spec) (*Sweep, error) {
	jobs, timeout, err := s.resolve(spec)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if s.pending+len(jobs) > s.cfg.QueueDepth {
		s.shed++
		pending := s.pending
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d job(s) pending, %d submitted, depth %d",
			ErrQueueFull, pending, len(jobs), s.cfg.QueueDepth)
	}
	s.pending += len(jobs)
	s.nextID++
	sw := &Sweep{
		id:         fmt.Sprintf("s%d", s.nextID),
		jobs:       jobs,
		jobTimeout: timeout,
		failFast:   spec.FailFast,
		status:     make([]JobStatus, len(jobs)),
		result:     make([][]byte, len(jobs)),
	}
	// The sweep's trace pids: a disjoint block per sweep, derived from
	// the daemon tracer (pid 0 stays the daemon's own row).
	sw.trace = s.cfg.Trace.WithPid(s.nextPid + 1)
	s.nextPid += len(jobs) + 1
	sw.cond = sync.NewCond(&sw.mu)
	for i, jb := range jobs {
		sw.status[i] = JobStatus{App: jb.app.Name, GPU: jb.gpu.Name, Sim: jb.sim, State: StatePending}
	}
	s.sweeps[sw.id] = sw
	// Every admitted sweep gets a goroutine: admission caps total jobs at
	// QueueDepth and every sweep has at least one, which bounds them. The
	// Add stays under the lock so it cannot race Close's Wait.
	s.wg.Add(1)
	go s.runSweep(sw)
	s.mu.Unlock()
	return sw, nil
}

// resolve expands a spec into its jobs (GPUs outermost, then apps, then
// sims — the deterministic order of the regression corpus) and validates
// every name up front so admission is all-or-nothing.
func (s *Service) resolve(spec Spec) ([]job, time.Duration, error) {
	appNames := spec.Apps
	if len(appNames) == 0 {
		appNames = workload.Names()
	}
	gpuNames := spec.GPUs
	if len(gpuNames) == 0 {
		gpuNames = config.PresetNames()
	}
	simNames := spec.Sims
	if len(simNames) == 0 {
		simNames = []string{"memory"}
	}
	scale := spec.Scale
	if scale == 0 {
		scale = 0.25
	}
	if scale < 0 {
		return nil, 0, fmt.Errorf("service: negative scale %g", scale)
	}

	// The spec's own sampling fields are validated before the overlay:
	// tuning fields without the mode switch would be dead settings the
	// daemon's default silently replaces.
	requested := sim.Options{
		EpochCycles: spec.EpochCycles,
		Sampling: sim.Sampling{
			Enabled:       spec.Sample,
			BlockFraction: spec.SampleFrac,
			ReplayStride:  spec.SampleStride,
			Seed:          spec.SampleSeed,
		},
	}
	if err := validate(sim.Options{Sampling: requested.Sampling}); err != nil {
		return nil, 0, fmt.Errorf("service: %w", err)
	}
	base := requested.WithDefaults(s.cfg.Defaults)
	if err := validate(base); err != nil {
		return nil, 0, fmt.Errorf("service: %w", err)
	}

	var timeout time.Duration
	if spec.JobTimeout != "" {
		d, err := time.ParseDuration(spec.JobTimeout)
		if err != nil {
			return nil, 0, fmt.Errorf("service: job_timeout: %w", err)
		}
		if d < 0 {
			return nil, 0, fmt.Errorf("service: negative job_timeout %v", d)
		}
		timeout = d
	}
	if max := s.cfg.MaxJobTimeout; max > 0 && (timeout == 0 || timeout > max) {
		timeout = max
	}

	apps := make([]*trace.App, len(appNames))
	for i, name := range appNames {
		app, err := workload.Generate(name, scale)
		if err != nil {
			return nil, 0, err
		}
		apps[i] = app
	}
	gpus := make([]config.GPU, len(gpuNames))
	for i, name := range gpuNames {
		g, ok := config.Preset(name)
		if !ok {
			return nil, 0, fmt.Errorf("service: unknown GPU preset %q (want one of %v)", name, config.PresetNames())
		}
		gpus[i] = g
	}
	kinds := make([]sim.Kind, len(simNames))
	for i, name := range simNames {
		k, err := sim.ParseKind(name)
		if err != nil {
			return nil, 0, fmt.Errorf("service: %w", err)
		}
		kinds[i] = k
	}

	var jobs []job
	for _, g := range gpus {
		for _, a := range apps {
			for _, k := range kinds {
				opts := base
				opts.Kind = k
				jobs = append(jobs, job{
					app: a, scale: scale, gpu: g, opts: opts, sim: k.String(),
					key: jobKey(a, g, opts),
				})
			}
		}
	}
	return jobs, timeout, nil
}

// validate is sim.Options.Validate with the values named by their JSON
// fields, so the reason reads in the API's vocabulary.
func validate(o sim.Options) error {
	if err := o.Validate(); err != nil {
		sm := o.Sampling
		return fmt.Errorf("epoch_cycles %d, sample %v, sample_frac %g, sample_stride %d, sample_seed %d: %w",
			o.EpochCycles, sm.Enabled, sm.BlockFraction, sm.ReplayStride, sm.Seed, err)
	}
	return nil
}

// Sweep looks a sweep up by id.
func (s *Service) Sweep(id string) (*Sweep, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return sw, nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Cache:       s.cache.Stats(),
		Store:       s.store.Stats(),
		Remote:      s.board.Stats(),
		PendingJobs: s.pending,
		Sweeps:      len(s.sweeps),
		Shed:        s.shed,
	}
}

// Close drains the service: admissions stop immediately, admitted sweeps
// are given until ctx expires to finish, then the board is closed under
// them: outstanding jobs fail with context.Canceled, in-flight simulations
// stop at the engine's next context poll, and the sweeps still complete.
// Close returns when every sweep and executor has exited.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("service: Close called twice")
	}
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
		s.board.Close(nil)
	case <-ctx.Done():
		s.cancel() // hard drain: stop waiting on other sweeps' flights
		// Resolving the board's outstanding jobs is what unblocks sweeps
		// waiting on them, so it happens before waiting for the sweeps.
		s.board.Close(context.Canceled)
		<-done
		err = ctx.Err()
	}
	s.execs.Wait()
	return err
}

// executor is one of the daemon's own claimants. It runs the same state
// machine as a remote Worker — claim, simulate, fenced commit — by direct
// calls on the board and the job's in-memory inputs, until the board closes.
func (s *Service) executor(id string, slot int) {
	defer s.execs.Done()
	for {
		l, err := s.board.Claim(context.Background(), id)
		if err != nil {
			return
		}
		if hook := s.runHook; hook != nil {
			hook(l)
		}
		val, err := simulate(l.ctx, slot, l.job)
		// A commit can only lose to the fence (the job was canceled or the
		// board closed, which already resolved it), so its error is dropped;
		// a grant revoked before the simulation ended has nothing to commit.
		switch {
		case l.ctx.Err() != nil:
		case err != nil:
			_ = s.board.Fail(l.id, l.token, err)
		default:
			_ = s.board.Fulfill(l.id, l.token, val)
		}
	}
}

// simulate runs one job to its canonical result bytes under the runner's
// panic isolation and per-job deadline. It is the one place this package
// executes a simulation: executors and Workers both end up here.
func simulate(ctx context.Context, slot int, j *boardJob) ([]byte, error) {
	o := runner.RunJob(ctx, slot, j.index, runner.Job{App: j.app, GPU: j.gpu, Opts: j.opts},
		j.start, &runner.Options{JobTimeout: j.timeout, Trace: j.trace})
	if o.Err != nil {
		return nil, o.Err
	}
	return regress.Canonical(o.Result), nil
}

// runSweep executes one sweep: for each job a cache hit, a wait on another
// claimant's flight, or an owned miss; then the owned misses are posted to
// the board, and when every job has resolved the tally is emitted.
func (s *Service) runSweep(sw *Sweep) {
	defer s.wg.Done()
	if hook := s.execHook; hook != nil {
		hook(sw)
	}

	start := time.Now()

	var (
		wg      sync.WaitGroup
		tripped atomic.Bool
		owned   []*boardJob
	)
	for i := range sw.jobs {
		jb := &sw.jobs[i]
		val, hit, owner, flight := s.cache.Claim(jb.key)
		switch {
		case hit:
			s.finishJob(sw, i, val, nil, true)
		case owner:
			j := &boardJob{
				job: jb, timeout: sw.jobTimeout, trace: sw.trace, index: i, start: start,
				onStart: func(string) { s.startJob(sw, i) },
				done: func(val []byte, err error) {
					defer wg.Done()
					if err != nil {
						s.cache.Fail(flight, err)
					} else {
						// A failed ref write only costs persistence; the
						// value still serves this sweep and its joiners.
						_ = s.cache.Fulfill(flight, val)
					}
					s.finishJob(sw, i, val, err, false)
					// FailFast: terminally skip the sweep's other board jobs.
					// Cancel ignores keys that already resolved; a job still
					// running stops through its context (in-process) or at
					// its worker's next heartbeat (remote). Each skip comes
					// back through done as a failure, so the first failure
					// trips a flag: a sync.Once may not be re-entered.
					if err != nil && sw.failFast && tripped.CompareAndSwap(false, true) {
						for _, o := range owned {
							s.board.Cancel(o.key, fmt.Errorf("%w: fail-fast after another job's failure", runner.ErrJobSkipped))
						}
					}
				},
			}
			owned = append(owned, j)
		default:
			// Joined another claimant's flight. Owners always resolve their
			// flights (even for skipped jobs), so the wait terminates; s.ctx
			// guards against a hard drain racing an owner.
			wg.Add(1)
			go func() {
				defer wg.Done()
				val, err := flight.Wait(s.ctx)
				s.finishJob(sw, i, val, err, err == nil)
			}()
		}
	}
	// Posting starts only once owned is complete: the first failure may
	// come back before the last Enqueue, and FailFast must see them all.
	wg.Add(len(owned))
	for _, j := range owned {
		s.board.Enqueue(j)
	}
	wg.Wait()

	// Retention first, so whoever sees the tally also sees its effect.
	s.mu.Lock()
	s.finished = append(s.finished, sw.id)
	if len(s.finished) > maxFinishedSweeps {
		delete(s.sweeps, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()

	sw.mu.Lock()
	sw.done = true
	sw.appendEventLocked(Event{
		Type: "sweep", Done: sw.okJobs + sw.failed, Failed: sw.failed, Total: len(sw.jobs),
	})
	sw.mu.Unlock()

	// Flushing keeps a streaming trace file current between sweeps; a
	// flush error is non-fatal here and resurfaces at daemon Close.
	_ = sw.trace.Flush()
}

// startJob transitions a job to running and emits its event.
func (s *Service) startJob(sw *Sweep, i int) {
	sw.mu.Lock()
	sw.status[i].State = StateRunning
	st := sw.status[i]
	sw.appendEventLocked(Event{
		Type: "job", Job: i, App: st.App, GPU: st.GPU, Sim: st.Sim,
		State: StateRunning,
		Done:  sw.okJobs + sw.failed, Failed: sw.failed, Total: len(sw.jobs),
	})
	sw.mu.Unlock()
}

// finishJob records a job's terminal state, stores its canonical result,
// emits its event and returns its admission-control slot.
func (s *Service) finishJob(sw *Sweep, i int, val []byte, err error, cached bool) {
	sw.mu.Lock()
	st := &sw.status[i]
	st.Cached = cached
	switch {
	case err == nil:
		st.State = StateDone
		sw.result[i] = val
		sw.okJobs++
	case errors.Is(err, runner.ErrJobSkipped):
		st.State = StateSkipped
		st.Error = err.Error()
		sw.failed++
	default:
		st.State = StateFailed
		st.Error = err.Error()
		sw.failed++
	}
	ev := Event{
		Type: "job", Job: i, App: st.App, GPU: st.GPU, Sim: st.Sim,
		State: st.State, Cached: st.Cached, Error: st.Error,
		Done: sw.okJobs + sw.failed, Failed: sw.failed, Total: len(sw.jobs),
	}
	sw.appendEventLocked(ev)
	sw.mu.Unlock()

	s.mu.Lock()
	s.pending--
	s.mu.Unlock()
}

// appendEventLocked stamps, stores and broadcasts an event. Callers hold
// sw.mu.
func (sw *Sweep) appendEventLocked(ev Event) {
	ev.Seq = len(sw.events)
	sw.events = append(sw.events, ev)
	sw.cond.Broadcast()
}

// Status snapshots the sweep.
func (sw *Sweep) Status() Status {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := Status{
		ID: sw.id, Done: sw.done, Total: len(sw.jobs),
		Ok: sw.okJobs, Failed: sw.failed,
		Jobs: append([]JobStatus(nil), sw.status...),
	}
	for _, j := range st.Jobs {
		if j.Cached {
			st.Cached++
		}
	}
	return st
}

// WaitEvents blocks until the sweep has events beyond offset `from` (or
// is done, or ctx expires) and returns them plus whether the sweep is
// complete. A finished sweep returns its remaining events immediately;
// (nil, true, nil) means the stream is exhausted.
func (sw *Sweep) WaitEvents(ctx context.Context, from int) ([]Event, bool, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for len(sw.events) <= from && !sw.done {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		// Wake the cond wait when ctx is canceled: cond has no native
		// context support, so a watcher broadcasts on expiry.
		stop := context.AfterFunc(ctx, func() {
			sw.mu.Lock()
			defer sw.mu.Unlock()
			sw.cond.Broadcast()
		})
		sw.cond.Wait()
		stop()
	}
	if from > len(sw.events) {
		from = len(sw.events)
	}
	return append([]Event(nil), sw.events[from:]...), sw.done, nil
}

// Results renders the sweep's results: the canonical metric blocks of its
// succeeded jobs concatenated in job order. The bytes are deliberately
// free of anything run-dependent (cache hits, timings), so two identical
// submissions produce byte-identical bodies — the property the cache
// relies on and the end-to-end tests pin. An unfinished sweep has no
// results yet.
func (sw *Sweep) Results() ([]byte, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !sw.done {
		return nil, fmt.Errorf("service: sweep %s still running", sw.id)
	}
	var out []byte
	for _, r := range sw.result {
		out = append(out, r...)
	}
	return out, nil
}
