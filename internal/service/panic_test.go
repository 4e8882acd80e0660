package service

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/mem"
	"swiftsim/internal/memo"
	"swiftsim/internal/reuse"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// TestPanicPoisonsNothing: a compute that panics under a process-wide
// memo, a pool or a shared notification leaves it as it was. The panic
// reaches the caller, and the next call returns what it returns with no
// panic before it. Each row takes that value (want), makes a call whose
// compute panics (poison), and makes the call again (got). The service's
// code version has no row: it is read when the package is initialized,
// with no once to poison.
func TestPanicPoisonsNothing(t *testing.T) {
	// An uncommon GPU keeps the process-wide memos cold for these keys.
	gpu := config.RTX2080Ti()
	gpu.NumSMs, gpu.MemPartitions = 3, 2
	app, err := workload.Generate("GRU", 0.1) // kernels enough for phase one's workers
	if err != nil {
		t.Fatal(err)
	}
	copied := *app // the validApps memo's key, unvalidated
	// The job-key memo outlives the test: each run keys a GPU of its own.
	keyGPU := gpu
	keyGPU.Name = fmt.Sprintf("poison-%d", poisonRuns.Add(1))
	keyIn := keyInputs{trace.ContentHash(app), keyGPU, sim.Options{}.Identity()}
	geom := reuse.L1GeometryOf(app, gpu, false)
	l2 := reuse.L2LevelOf(gpu, false)
	var m *memo.Memo[string, int]
	var store mem.Store
	var lost *mem.Request
	b := testBoard(t, 3)
	defer b.Close(nil)
	worker := b.Register(true)
	// resolve posts a job for waiters ws and fulfills it with val.
	resolve := func(t *testing.T, key string, val string, ws ...*waiter) {
		j, _, _ := testJob(key, nil)
		for _, w := range ws {
			b.Post(j, w)
		}
		l, err := b.Claim(context.Background(), worker)
		if err != nil || l == nil {
			t.Fatalf("Claim: %v %v", l, err)
		}
		if err := b.Fulfill(l.id, l.token, []byte(val), ""); err != nil {
			t.Fatal(err)
		}
	}

	for _, row := range []struct {
		name   string
		want   func(t *testing.T) any
		poison func(t *testing.T)
		got    func(t *testing.T) any
	}{{
		name: "memo",
		want: func(*testing.T) any { return 7 },
		poison: func(*testing.T) {
			m = memo.New[string](8, func(int) int { return 1 })
			m.Get("k", panicking[string, int])
		},
		got: func(*testing.T) any { return m.Get("k", func(string) int { return 7 }) },
	}, {
		name:   "job-key memo",
		want:   func(*testing.T) any { return deriveKey(keyIn) },
		poison: func(*testing.T) { keyMemo.Get(keyIn, panicking[keyInputs, string]) },
		got:    func(*testing.T) any { return jobKey(app, keyGPU, sim.Options{}) },
	}, {
		// A nil kernel panics App.Validate under the memo of validated apps.
		name: "validApps memo",
		want: func(t *testing.T) any { return runCycles(t, app, gpu) },
		poison: func(t *testing.T) {
			copied.Kernels = []*trace.Kernel{nil}
			defer func() { copied.Kernels = app.Kernels }()
			sim.Run(&copied, gpu, sim.Options{Kind: sim.Memory})
		},
		got: func(t *testing.T) any { return runCycles(t, &copied, gpu) },
	}, {
		// No SMs divides by zero inside a phase-one walk, on a worker.
		name: "reuse walks",
		want: func(*testing.T) any { return reuse.FilterL1(app, geom).ReplayL2(l2) },
		poison: func(*testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			reuse.FilterL1(app, reuse.L1Geometry{CoalesceBytes: 32, L1: geom.L1})
		},
		got: func(*testing.T) any { return reuse.FilterL1(app, geom).ReplayL2(l2) },
	}, {
		// A level of no sets cannot be built or reset.
		name: "reuse l2Spares",
		want: func(*testing.T) any { return reuse.FilterL1(app, geom).ReplayL2(l2) },
		poison: func(*testing.T) {
			bad := l2
			bad.Sets = 0
			reuse.FilterL1(app, geom).ReplayL2(bad)
		},
		got: func(*testing.T) any { return reuse.FilterL1(app, geom).ReplayL2(l2) },
	}, {
		// The request whose owner panicked is lost, not handed out again.
		name: "request store",
		want: func(*testing.T) any { return true },
		poison: func(*testing.T) {
			lost = store.Get()
			lost.Addr, lost.Owner = 64, panicOwner{}
			lost.Deliver()
		},
		got: func(*testing.T) any {
			r := store.Get()
			return r != lost && r.Addr == 0 && r.Owner == nil
		},
	}, {
		// The first waiter's done panics; the joined one is still told.
		name: "lease board waiters",
		want: func(*testing.T) any { return outcome{val: []byte("v"), cached: true} },
		poison: func(t *testing.T) {
			_, joined, ch := testJob("", nil)
			defer func() {
				select {
				case o := <-ch:
					if string(o.val) != "v" {
						t.Errorf("joined waiter told %q", o.val)
					}
				default:
					t.Error("a panicking waiter kept the joined one from being told")
				}
			}()
			resolve(t, "panic-notify", "v", &waiter{start: func(string) {}, done: func([]byte, error, bool) { panic("waiter") }}, joined)
		},
		got: func(t *testing.T) any {
			_, w, ch := testJob("", nil)
			resolve(t, "after-panic", "v", &waiter{start: func(string) {}, done: func([]byte, error, bool) {}}, w)
			return waitOutcome(t, ch)
		},
	}} {
		t.Run(row.name, func(t *testing.T) {
			want := row.want(t)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("the poisoning call did not panic")
					}
				}()
				row.poison(t)
			}()
			if got := row.got(t); !reflect.DeepEqual(got, want) {
				t.Errorf("after a panic: %+v, want %+v", got, want)
			}
		})
	}
}

// poisonRuns counts runs of TestPanicPoisonsNothing in this process.
var poisonRuns atomic.Int32

// panicking is a memo compute that panics.
func panicking[K, V any](K) V { panic("compute") }

// panicOwner is a requester whose completion callback panics.
type panicOwner struct{}

func (panicOwner) RequestDone(*mem.Request) { panic("RequestDone") }

// runCycles runs app under Memory and returns its cycles.
func runCycles(t *testing.T, app *trace.App, gpu config.GPU) uint64 {
	t.Helper()
	res, err := sim.Run(app, gpu, sim.Options{Kind: sim.Memory})
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles
}
