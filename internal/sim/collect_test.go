//go:build go1.24

package sim

import (
	"runtime"
	"testing"
	"weak"

	"swiftsim/internal/mem"
)

// TestFinishedRunStoreIsCollected: a run's request store is reachable only
// from its assembly and its requests, so nothing keeps it, or a finished
// assembly through a request's hop and stage slots, once the run has
// returned. A Memory run has no cycle-accurate LD/ST unit and makes none.
//
// A finalizer cannot see this: the store and its requests point at each
// other, and a finalizer never runs on an object in a cycle. So the check
// takes a weak pointer, which the standard library has from Go 1.24 on; the
// build line keeps the file out of older toolchains' test builds.
func TestFinishedRunStoreIsCollected(t *testing.T) {
	gpu := smallGPU()
	app := mustApp(t, "BFS", 0.25)
	var store weak.Pointer[mem.Store]
	made := false
	ranOn = func(a *gpuAssembly) { store, made = weak.Make(a.reqs), a.reqs != nil }
	defer func() { ranOn = nil }()
	for _, kind := range []Kind{Basic, Detailed, Memory} {
		if _, err := Run(app, gpu, Options{Kind: kind}); err != nil {
			t.Fatal(err)
		}
		if want := kind != Memory; made != want {
			t.Errorf("%s run made a request store: %v, want %v", kind, made, want)
		}
		runtime.GC()
		if store.Value() != nil {
			t.Errorf("the request store of a finished %s run is still reachable", kind)
		}
	}
}
