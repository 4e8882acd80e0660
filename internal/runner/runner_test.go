package runner

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/sim"
	"swiftsim/internal/smcore"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

func testJobs(t *testing.T, names []string) []Job {
	t.Helper()
	gpu := config.RTX2080Ti()
	gpu.NumSMs = 4
	gpu.MemPartitions = 2
	var jobs []Job
	for _, n := range names {
		app, err := workload.Generate(n, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Job{App: app, GPU: gpu, Opts: sim.Options{Kind: sim.Memory}})
	}
	return jobs
}

func TestParallelMatchesSequential(t *testing.T) {
	names := []string{"BFS", "GEMM", "SM", "LU", "WC", "MVT"}
	jobs := testJobs(t, names)
	seq := RunAll(jobs, 1)
	par := RunAll(jobs, 4)
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("job %d errors: %v / %v", i, seq[i].Err, par[i].Err)
		}
		if seq[i].Result.Cycles != par[i].Result.Cycles {
			t.Errorf("%s: parallel cycles %d != sequential %d",
				names[i], par[i].Result.Cycles, seq[i].Result.Cycles)
		}
		if seq[i].Result.App != names[i] || par[i].Result.App != names[i] {
			t.Errorf("job %d: order not preserved (%s/%s)", i,
				seq[i].Result.App, par[i].Result.App)
		}
	}
}

func TestDefaultThreadCount(t *testing.T) {
	jobs := testJobs(t, []string{"BFS", "GEMM"})
	out := RunAll(jobs, 0) // NumCPU
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
	}
}

func TestErrorsPropagate(t *testing.T) {
	jobs := testJobs(t, []string{"BFS"})
	bad := jobs[0]
	bad.GPU.NumSMs = 0
	out := RunAll([]Job{bad, jobs[0]}, 2)
	if out[0].Err == nil {
		t.Error("invalid job did not error")
	}
	if out[1].Err != nil {
		t.Errorf("valid job errored: %v", out[1].Err)
	}
}

func TestEmptyJobs(t *testing.T) {
	if out := RunAll(nil, 4); len(out) != 0 {
		t.Fatalf("RunAll(nil) returned %d outcomes", len(out))
	}
	if out := Run(nil, 4, Options{FailFast: true}); len(out) != 0 {
		t.Fatalf("Run(nil) returned %d outcomes", len(out))
	}
}

func TestMoreThreadsThanJobs(t *testing.T) {
	jobs := testJobs(t, []string{"BFS", "GEMM"})
	out := RunAll(jobs, 32)
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
	}
}

// TestMixedFailureOrdering: failed jobs keep their slots, successes keep
// theirs, and every failure is a *JobError naming the right job.
func TestMixedFailureOrdering(t *testing.T) {
	names := []string{"BFS", "GEMM", "SM", "LU", "WC"}
	jobs := testJobs(t, names)
	badIdx := []int{1, 3}
	for _, i := range badIdx {
		jobs[i].GPU.NumSMs = 0 // invalid configuration: job must fail
	}
	out := RunAll(jobs, 3)
	for i, o := range out {
		bad := i == 1 || i == 3
		if bad {
			if o.Err == nil {
				t.Fatalf("job %d should have failed", i)
			}
			var je *JobError
			if !errors.As(o.Err, &je) {
				t.Fatalf("job %d error is %T, want *JobError", i, o.Err)
			}
			if je.JobIndex != i || je.App != names[i] || je.Panicked {
				t.Errorf("job %d identity: index=%d app=%q panicked=%v",
					i, je.JobIndex, je.App, je.Panicked)
			}
			continue
		}
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Result.App != names[i] {
			t.Errorf("job %d: got result for %s", i, o.Result.App)
		}
	}
}

// TestPanicIsolation: a module that panics mid-simulation fails only its
// own job; neighbors complete, and the outcome records the panic value
// and stack.
func TestPanicIsolation(t *testing.T) {
	jobs := testJobs(t, []string{"BFS", "GEMM", "SM"})
	jobs[1].Opts.Scheduler = func(smID, subCore int) smcore.Picker {
		panic("injected scheduler fault")
	}
	out := RunAll(jobs, 3)
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("neighbor jobs failed: %v / %v", out[0].Err, out[2].Err)
	}
	var je *JobError
	if !errors.As(out[1].Err, &je) {
		t.Fatalf("panicking job error is %T, want *JobError", out[1].Err)
	}
	if !je.Panicked || je.PanicValue != "injected scheduler fault" {
		t.Errorf("panic not captured: panicked=%v value=%v", je.Panicked, je.PanicValue)
	}
	if len(je.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if !strings.Contains(je.Error(), "panic") {
		t.Errorf("Error() does not mention the panic: %s", je.Error())
	}
}

// faultyPicker never issues, and panics on its nth Pick: a fault inside
// SM.Tick, mid-simulation.
type faultyPicker struct{ picks, faultAt int }

func (p *faultyPicker) Pick(uint64, []*smcore.Warp, func(*smcore.Warp) bool) int {
	if p.picks++; p.picks == p.faultAt {
		panic("injected picker fault")
	}
	return -1
}
func (p *faultyPicker) Issued(int, *smcore.Warp) {}

// TestPanicInsideRelaxedPass: a module that panics in its Tick during a
// relaxed pass (EpochCycles = 8) fails its job like any other panic — a
// *JobError carrying the module's own value and a stack that names its
// Tick, with no engine wrapper in between — and a following run in the
// same process is unaffected.
func TestPanicInsideRelaxedPass(t *testing.T) {
	job := testJobs(t, []string{"GEMM"})[0]
	job.Opts = sim.Options{Kind: sim.Basic, EpochCycles: 8}
	good := RunJob(context.Background(), 0, 0, job, time.Now(), &Options{})
	if good.Err != nil {
		t.Fatal(good.Err)
	}

	bad := job
	bad.Opts.Scheduler = func(smID, sub int) smcore.Picker { return &faultyPicker{faultAt: 20} }
	var je *JobError
	if o := RunJob(context.Background(), 0, 0, bad, time.Now(), &Options{}); !errors.As(o.Err, &je) {
		t.Fatalf("panicking job error is %T (%v), want *JobError", o.Err, o.Err)
	}
	if !je.Panicked || je.PanicValue != "injected picker fault" {
		t.Errorf("panic not captured as the module raised it: panicked=%v value=%v (%T)", je.Panicked, je.PanicValue, je.PanicValue)
	}
	for _, frame := range []string{"smcore.(*SM).Tick", "engine.(*segment).runPass"} {
		if !strings.Contains(string(je.Stack), frame) {
			t.Errorf("panic stack does not name %s:\n%s", frame, je.Stack)
		}
	}

	again := RunJob(context.Background(), 0, 0, job, time.Now(), &Options{})
	if again.Err != nil {
		t.Fatalf("run after the panicked one: %v", again.Err)
	}
	if again.Result.Cycles != good.Result.Cycles {
		t.Errorf("run after the panicked one: %d cycles, want %d", again.Result.Cycles, good.Result.Cycles)
	}
}

// TestCancellationMidSweep: canceling the sweep context stops running
// jobs within one context-poll granularity and marks undispatched jobs
// skipped.
func TestCancellationMidSweep(t *testing.T) {
	// Slow detailed jobs so cancellation lands mid-simulation.
	gpu := config.RTX2080Ti()
	var jobs []Job
	for i := 0; i < 6; i++ {
		app, err := workload.Generate("SM", 0.3)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Job{App: app, GPU: gpu, Opts: sim.Options{Kind: sim.Detailed}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	out := Run(jobs, 2, Options{Ctx: ctx})
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("sweep took %v after cancellation", elapsed)
	}
	canceled, skipped := 0, 0
	for i, o := range out {
		if o.Err == nil {
			continue // a job may have finished before the cancel landed
		}
		var je *JobError
		if !errors.As(o.Err, &je) {
			t.Fatalf("job %d error is %T, want *JobError", i, o.Err)
		}
		if errors.Is(o.Err, ErrJobSkipped) {
			skipped++
		} else if errors.Is(o.Err, context.Canceled) {
			canceled++
		} else {
			t.Errorf("job %d: unexpected error %v", i, o.Err)
		}
	}
	if canceled+skipped == 0 {
		t.Fatal("cancellation had no effect on any job")
	}
}

func TestPreCanceledContextSkipsAll(t *testing.T) {
	jobs := testJobs(t, []string{"BFS", "GEMM"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := Run(jobs, 2, Options{Ctx: ctx})
	for i, o := range out {
		if !errors.Is(o.Err, ErrJobSkipped) {
			t.Errorf("job %d: want ErrJobSkipped, got %v", i, o.Err)
		}
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("job %d: cause should be context.Canceled, got %v", i, o.Err)
		}
	}
}

func TestJobTimeout(t *testing.T) {
	gpu := config.RTX2080Ti()
	app, err := workload.Generate("SM", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	slow := Job{App: app, GPU: gpu, Opts: sim.Options{Kind: sim.Detailed}}
	out := Run([]Job{slow}, 1, Options{JobTimeout: 5 * time.Millisecond})
	if !errors.Is(out[0].Err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", out[0].Err)
	}
	if !strings.Contains(out[0].Err.Error(), "job timeout") {
		t.Errorf("timeout not attributed to the per-job deadline: %v", out[0].Err)
	}

	// A generous deadline does not interfere with a fast job.
	fast := testJobs(t, []string{"BFS"})
	out = Run(fast, 1, Options{JobTimeout: 5 * time.Minute})
	if out[0].Err != nil {
		t.Fatalf("fast job failed under generous timeout: %v", out[0].Err)
	}
}

// TestFailFast: with one worker the order is deterministic — the first
// failure cancels everything after it.
func TestFailFast(t *testing.T) {
	jobs := testJobs(t, []string{"BFS", "GEMM", "SM"})
	jobs[0].GPU.NumSMs = 0
	out := Run(jobs, 1, Options{FailFast: true})
	if out[0].Err == nil {
		t.Fatal("bad job did not fail")
	}
	if errors.Is(out[0].Err, ErrJobSkipped) {
		t.Fatalf("first job should fail on its own, not be skipped: %v", out[0].Err)
	}
	for i := 1; i < len(out); i++ {
		if !errors.Is(out[i].Err, ErrJobSkipped) {
			t.Errorf("job %d: want ErrJobSkipped after FailFast, got %v", i, out[i].Err)
		}
	}
}

// TestOnProgress: the callback sees every completion exactly once with
// monotonically increasing Done counts.
func TestOnProgress(t *testing.T) {
	jobs := testJobs(t, []string{"BFS", "GEMM", "SM"})
	jobs[1].GPU.NumSMs = 0
	var got []Progress
	out := Run(jobs, 2, Options{OnProgress: func(p Progress) { got = append(got, p) }})
	if len(got) != len(jobs) {
		t.Fatalf("OnProgress called %d times, want %d", len(got), len(jobs))
	}
	seen := map[int]bool{}
	for i, p := range got {
		if p.Done != i+1 {
			t.Errorf("progress %d: Done=%d, want %d", i, p.Done, i+1)
		}
		if p.Total != len(jobs) {
			t.Errorf("progress %d: Total=%d, want %d", i, p.Total, len(jobs))
		}
		if seen[p.JobIndex] {
			t.Errorf("job %d reported twice", p.JobIndex)
		}
		seen[p.JobIndex] = true
		if (p.Err != nil) != (out[p.JobIndex].Err != nil) {
			t.Errorf("progress for job %d disagrees with its outcome", p.JobIndex)
		}
	}
	if last := got[len(got)-1]; last.Failed != 1 {
		t.Errorf("final Failed=%d, want 1", last.Failed)
	}
}

// TestSweepSurvivesOneBadTrace is the acceptance scenario: a 20-app sweep
// in which one application's trace demands more registers than an SM has
// (the former smcore panic) completes the other 19 jobs and attributes
// the failure to the right job.
func TestSweepSurvivesOneBadTrace(t *testing.T) {
	names := workload.Names()
	if len(names) < 20 {
		t.Fatalf("workload catalog has %d apps, want >= 20", len(names))
	}
	names = names[:20]
	gpu := config.RTX2080Ti()
	gpu.NumSMs = 4
	gpu.MemPartitions = 2
	const badIdx = 7
	var jobs []Job
	for i, n := range names {
		app, err := workload.Generate(n, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if i == badIdx {
			// One thread's registers exceed the whole SM register file:
			// no block of this kernel can ever be scheduled. Generated
			// traces are memoized and shared, so mutate a clone.
			k := app.Kernels[0]
			bad := &trace.Kernel{Name: k.Name, Grid: k.Grid, Block: k.Block, RegsPerThread: gpu.SM.Registers,
				SharedMemPerBlock: k.SharedMemPerBlock, Blocks: k.Blocks, Store: k.Store}
			kernels := append([]*trace.Kernel{bad}, app.Kernels[1:]...)
			app = &trace.App{Name: app.Name, Suite: app.Suite, Kernels: kernels}
		}
		jobs = append(jobs, Job{App: app, GPU: gpu, Opts: sim.Options{Kind: sim.Memory}})
	}
	out := RunAll(jobs, 4)
	for i, o := range out {
		if i == badIdx {
			var je *JobError
			if !errors.As(o.Err, &je) {
				t.Fatalf("bad job error is %T (%v), want *JobError", o.Err, o.Err)
			}
			if je.JobIndex != badIdx || je.App != names[badIdx] || je.GPU != gpu.Name {
				t.Errorf("failure identity: index=%d app=%q gpu=%q",
					je.JobIndex, je.App, je.GPU)
			}
			if je.Panicked {
				t.Error("unschedulable kernel should be a validation error, not a panic")
			}
			if !strings.Contains(o.Err.Error(), "can never be scheduled") {
				t.Errorf("error does not explain the rejection: %v", o.Err)
			}
			continue
		}
		if o.Err != nil {
			t.Fatalf("job %d (%s) failed: %v", i, names[i], o.Err)
		}
		if o.Result == nil || o.Result.App != names[i] {
			t.Fatalf("job %d: missing or misordered result", i)
		}
	}
}
