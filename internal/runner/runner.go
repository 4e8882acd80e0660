// Package runner implements Swift-Sim's parallel simulation mode (paper
// §IV-B2): because each application simulation is an independent
// simulator instance, a worker pool simulates many applications
// concurrently. On the paper's 50-thread server this contributes about a
// 5× additional speedup for both hybrid configurations; the factor here is
// bounded by the host's core count.
//
// The runner is built to be fault tolerant, so a long-lived sweep service
// can survive individual bad jobs:
//
//   - Every job runs under panic recovery: a panicking simulation is
//     converted into a structured *JobError (with the panic value and
//     stack) on its own Outcome, and the other jobs keep running.
//   - Options.Ctx cancels the whole sweep; jobs already running stop at
//     the engine's next context poll, jobs not yet started are marked
//     skipped.
//   - Options.JobTimeout bounds each job's wall-clock time.
//   - Options.FailFast cancels the rest of the sweep after the first
//     failure.
//   - Options.OnProgress observes completion of each job.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/obs"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
)

// Job is one application simulation to run.
type Job struct {
	// App is the trace to simulate.
	App *trace.App
	// GPU is the hardware configuration.
	GPU config.GPU
	// Opts selects the simulator configuration.
	Opts sim.Options
}

// Outcome pairs a job's result with its error. A failed job's Err is
// always a *JobError carrying the job's identity; use errors.As to
// recover it and errors.Is to test for causes (context.Canceled,
// context.DeadlineExceeded, ErrJobSkipped, engine.ErrCanceled, ...).
type Outcome struct {
	Result *sim.Result
	Err    error
}

// Options tunes a sweep beyond the worker count.
type Options struct {
	// Ctx cancels the entire sweep when done: running jobs stop at the
	// engine's next context poll (sub-millisecond granularity) and
	// undispatched jobs are marked skipped. nil means context.Background.
	Ctx context.Context
	// JobTimeout bounds each job's wall-clock time (0 = no deadline). A
	// job exceeding it fails with an error wrapping
	// context.DeadlineExceeded; other jobs are unaffected.
	JobTimeout time.Duration
	// FailFast cancels the remaining jobs after the first failure.
	// Already-running jobs stop early; not-yet-started jobs are skipped.
	FailFast bool
	// OnProgress, if non-nil, is invoked once per finished job. Calls are
	// serialized by the runner (no locking needed inside the callback) but
	// may come from any worker goroutine; the callback must not call back
	// into the runner.
	OnProgress func(Progress)
	// Trace is the sweep's observability handle. Each job derives its own
	// per-simulation tracer (pid = job index + 1) sharing the recorder
	// behind it, and the runner itself emits one wall-clock span per job
	// (pid 0, tid = worker, microseconds since sweep start) so parallel
	// utilization is visible in the trace. nil records nothing.
	Trace *obs.Tracer
	// Defaults is overlaid under every job's options by
	// sim.Options.WithDefaults: a job that leaves EpochCycles zero, or
	// Sampling disabled, takes the value here; what a job sets itself wins.
	Defaults sim.Options
}

// Progress describes one finished job of a sweep.
type Progress struct {
	// JobIndex is the job that just finished; Err is its outcome error.
	JobIndex int
	Err      error
	// Done and Failed count finished and failed jobs so far; Total is the
	// sweep size.
	Done   int
	Failed int
	Total  int
}

// ErrJobSkipped marks jobs that never started because the sweep was
// canceled first — by Options.Ctx or by FailFast after another job's
// failure. Test with errors.Is on an Outcome's Err.
var ErrJobSkipped = errors.New("runner: job skipped: sweep canceled")

// JobError is the structured error attached to every failed Outcome. It
// identifies the job (index, application, GPU) so failures stay
// attributable in sweeps of hundreds of jobs, and distinguishes ordinary
// simulation errors from recovered panics.
type JobError struct {
	// JobIndex is the job's position in the RunAll slice.
	JobIndex int
	// App and GPU identify the workload and hardware configuration.
	App string
	GPU string
	// Panicked reports that the simulation panicked; PanicValue and Stack
	// hold the recovered value and the goroutine stack at recovery time.
	Panicked   bool
	PanicValue any
	Stack      []byte
	// Err is the underlying cause (nil for panics).
	Err error
}

// Error implements the error interface.
func (e *JobError) Error() string {
	id := fmt.Sprintf("job %d (%s on %s)", e.JobIndex, e.App, e.GPU)
	if e.Panicked {
		return fmt.Sprintf("runner: %s: panic: %v", id, e.PanicValue)
	}
	return fmt.Sprintf("runner: %s: %v", id, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/errors.As.
func (e *JobError) Unwrap() error { return e.Err }

// RunAll executes jobs on a pool of `threads` workers (threads <= 0 uses
// runtime.NumCPU) and returns outcomes in job order. Each job runs in its
// own simulator instance, so results are bit-identical to sequential runs.
// It is Run with default Options.
func RunAll(jobs []Job, threads int) []Outcome {
	return Run(jobs, threads, Options{})
}

// Run executes jobs on a pool of `threads` workers (threads <= 0 uses
// runtime.NumCPU) under opts and returns outcomes in job order. One bad
// job — an invalid trace, a panicking module, a deadline overrun — fails
// only its own Outcome; the rest of the sweep completes normally unless
// FailFast is set.
func Run(jobs []Job, threads int, opts Options) []Outcome {
	if threads <= 0 {
		threads = runtime.NumCPU()
	}
	if threads > len(jobs) {
		threads = len(jobs)
	}
	out := make([]Outcome, len(jobs))
	if len(jobs) == 0 {
		return out
	}

	parent := opts.Ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var mu sync.Mutex
	var done, failed int
	finish := func(i int, o Outcome) {
		out[i] = o
		mu.Lock()
		defer mu.Unlock()
		done++
		if o.Err != nil {
			failed++
			if opts.FailFast {
				cancel()
			}
		}
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{
				JobIndex: i, Err: o.Err,
				Done: done, Failed: failed, Total: len(jobs),
			})
		}
	}
	sweepStart := time.Now()
	if threads <= 1 {
		for i := range jobs {
			finish(i, RunJob(ctx, 0, i, jobs[i], sweepStart, &opts))
		}
		return out
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range next {
				finish(i, RunJob(ctx, worker, i, jobs[i], sweepStart, &opts))
			}
		}(w)
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// RunJob executes job i of a sweep that began at sweepStart on pool slot
// worker, and emits its wall-clock trace span. It is the unit Run's pool
// repeats, exported for callers that schedule jobs themselves (the sweep
// service's executors claim one job at a time from a lease board): i places
// the job in opts.Trace's pid block and names it in a *JobError, exactly as
// if Run had dispatched it. Of opts it reads JobTimeout, Trace and
// Defaults. Emitting on the
// shared parent tracer from worker goroutines is safe: the tracer's fields
// are immutable and the recorder is concurrency-safe.
func RunJob(ctx context.Context, worker, i int, j Job, sweepStart time.Time, opts *Options) Outcome {
	jobStart := time.Since(sweepStart)
	o := runJob(ctx, i, j, opts)
	if opts.Trace.Enabled(obs.KernelLevel) {
		failedArg := uint64(0)
		if o.Err != nil {
			failedArg = 1
		}
		opts.Trace.Emit(obs.Event{
			Name: jobApp(j) + " on " + j.GPU.Name, Cat: "job",
			Ph: obs.PhaseSpan, Ts: uint64(jobStart.Microseconds()),
			Dur: uint64((time.Since(sweepStart) - jobStart).Microseconds()),
			Tid: int32(worker), Arg1Name: "job", Arg1: uint64(i),
			Arg2Name: "failed", Arg2: failedArg,
		})
	}
	return o
}

// runJob executes one job with panic isolation and a per-job deadline. It
// never panics: any failure, including a recovered panic, is returned as a
// *JobError on the Outcome. With tracing on, the job's simulation records
// into its own pid derived from the sweep tracer (j is a copy, so setting
// its Opts.Trace never mutates the caller's Job slice).
func runJob(ctx context.Context, i int, j Job, opts *Options) Outcome {
	timeout := opts.JobTimeout
	if tr := opts.Trace; tr != nil {
		// Pids are parent-relative so a caller holding a WithPid-derived
		// tracer (the sweep service gives each sweep its own pid block)
		// gets disjoint per-job pids; with the default parent pid 0 the
		// jobs land on pids 1..N as before.
		j.Opts.Trace = tr.WithPid(int(tr.Pid()) + i + 1)
	}
	j.Opts = j.Opts.WithDefaults(opts.Defaults)
	jobErr := func(cause error) *JobError {
		return &JobError{JobIndex: i, App: jobApp(j), GPU: j.GPU.Name, Err: cause}
	}
	if cerr := ctx.Err(); cerr != nil {
		// The sweep was canceled before this job started.
		return Outcome{Err: jobErr(fmt.Errorf("%w: %w", ErrJobSkipped, cerr))}
	}
	jctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var res *sim.Result
	var err error
	panicked := func() (je *JobError) {
		defer func() {
			if r := recover(); r != nil {
				je = &JobError{
					JobIndex: i, App: jobApp(j), GPU: j.GPU.Name,
					Panicked: true, PanicValue: r, Stack: debug.Stack(),
				}
			}
		}()
		res, err = sim.RunCtx(jctx, j.App, j.GPU, j.Opts)
		return nil
	}()
	switch {
	case panicked != nil:
		return Outcome{Err: panicked}
	case err != nil:
		// Attribute deadline overruns to the per-job timeout when the
		// sweep context itself is still live.
		if timeout > 0 && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			err = fmt.Errorf("job timeout %v exceeded: %w", timeout, err)
		}
		return Outcome{Err: jobErr(err)}
	default:
		return Outcome{Result: res}
	}
}

// jobApp names a job's application, tolerating nil traces.
func jobApp(j Job) string {
	if j.App == nil {
		return "<nil app>"
	}
	return j.App.Name
}
