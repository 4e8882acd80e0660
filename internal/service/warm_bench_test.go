package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"swiftsim/internal/workload"
)

// BenchmarkWarmSweep times a client's whole workflow for a sweep whose every
// job is cached, against an httptest daemon with two executors: POST the
// spec, follow its event stream to the tally, fetch its results. One cold
// sweep fills the cache first and is not timed. Under -short the spec is
// smallSpec's one job; otherwise it is the spec of the BENCHMARK.json
// service workloads, 20 applications x {basic, memory} at scale 0.5 on the
// RTX 2080 Ti, whose warm_ms is the median of such resubmits.
func BenchmarkWarmSweep(b *testing.B) {
	spec := smallSpec()
	if !testing.Short() {
		spec = Spec{Apps: workload.Names(), GPUs: []string{"RTX2080Ti"}, Sims: []string{"basic", "memory"}, Scale: 0.5}
	}
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{CacheDir: b.TempDir(), Threads: 2})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(s))
	defer func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	}()
	client := srv.Client()
	do := func(method, path string, req []byte, want int) []byte {
		r, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(req))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := client.Do(r)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != want {
			b.Fatalf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, data)
		}
		return data
	}
	sweep := func() []byte {
		var admitted struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(do("POST", "/v1/sweeps", body, http.StatusAccepted), &admitted); err != nil {
			b.Fatal(err)
		}
		do("GET", "/v1/sweeps/"+admitted.ID+"/events", nil, http.StatusOK) // ends with the tally
		return do("GET", "/v1/sweeps/"+admitted.ID+"/results", nil, http.StatusOK)
	}

	cold := sweep()
	hits := s.Stats().Cache.Hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !bytes.Equal(sweep(), cold) {
			b.Fatal("a warm sweep's results differ from the cold sweep's")
		}
	}
	b.StopTimer()
	if got, want := s.Stats().Cache.Hits-hits, uint64(b.N*len(spec.GPUs)*len(spec.Apps)*len(spec.Sims)); got != want {
		b.Fatalf("%d cache hits over %d warm sweeps, want %d", got, b.N, want)
	}
}
