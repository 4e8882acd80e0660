package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"swiftsim/internal/service"
)

// daemon is an in-process sweep service behind a loopback HTTP server,
// with the lease plane's workers when remote. It is what both service
// workloads and the service rigs drive; everything goes over HTTP.
type daemon struct {
	svc     *service.Service
	srv     *httptest.Server
	client  *http.Client
	dir     string
	stop    context.CancelFunc
	workers sync.WaitGroup
	tr      *recorder
}

// startDaemon brings the service up on a fresh cache directory under
// outDir, with a per-sweep pool of two threads. remote turns the lease
// plane on, and remoteWorkers is how many in-process workers, one job
// slot each, are started against it.
func startDaemon(outDir string, remote bool, remoteWorkers int, tr *recorder) (*daemon, error) {
	dir, err := os.MkdirTemp(outDir, "cache-")
	if err != nil {
		return nil, err
	}
	end := tr.begin("service.New", "")
	svc, err := service.New(service.Config{
		CacheDir: dir,
		Threads:  2,
		Remote:   service.RemoteConfig{Enabled: remote},
	})
	end()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{svc: svc, dir: dir, tr: tr}
	d.srv = httptest.NewServer(service.NewHandler(svc))
	d.client = d.srv.Client()
	ctx, cancel := context.WithCancel(context.Background())
	d.stop = cancel
	for i := 0; i < remoteWorkers; i++ {
		w := service.NewWorker(service.WorkerConfig{
			BaseURL: d.srv.URL, Name: fmt.Sprintf("bench-%d", i), Jobs: 1,
		})
		d.workers.Add(1)
		go func() {
			defer d.workers.Done()
			if err := w.Run(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "bench: worker:", err)
			}
		}()
	}
	// Workers register asynchronously; a sweep submitted before they have
	// would only wait for them, so setup ends once all are on the board.
	deadline := time.Now().Add(10 * time.Second)
	for remoteWorkers > 0 {
		st, err := d.stats()
		if err != nil {
			d.close()
			return nil, err
		}
		if st.Remote.Workers >= remoteWorkers {
			break
		}
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("only %d of %d workers registered", st.Remote.Workers, remoteWorkers)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return d, nil
}

// close stops workers, server and service, waits for each, and removes
// the cache directory.
func (d *daemon) close() {
	d.stop()
	d.workers.Wait()
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.svc.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench: service close:", err)
	}
	os.RemoveAll(d.dir)
}

// do issues one request and reads the whole reply, under a span named
// for the route.
func (d *daemon) do(method, route, path string, body []byte) (int, []byte, error) {
	defer d.tr.begin("http "+method+" "+route, path)()
	req, err := http.NewRequest(method, d.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (d *daemon) stats() (service.Stats, error) {
	var st service.Stats
	code, data, err := d.do("GET", "/v1/stats", "/v1/stats", nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: HTTP %d", code)
	}
	return st, json.Unmarshal(data, &st)
}

// sweepTimes are the three client-visible steps of one sweep request.
type sweepTimes struct {
	Submit, Events, Results time.Duration
}

func (t sweepTimes) total() time.Duration { return t.Submit + t.Events + t.Results }

// sweep is the client's whole workflow for one spec: POST it, follow the
// NDJSON progress stream to its end, fetch the results. It returns the
// result body; any non-2xx reply or failed job is an error.
func (d *daemon) sweep(spec []byte) ([]byte, sweepTimes, error) {
	var ts sweepTimes
	t0 := time.Now()
	code, data, err := d.do("POST", "/v1/sweeps", "/v1/sweeps", spec)
	ts.Submit = time.Since(t0)
	if err != nil {
		return nil, ts, err
	}
	if code != http.StatusAccepted {
		return nil, ts, fmt.Errorf("POST /v1/sweeps: HTTP %d: %s", code, data)
	}
	var admitted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &admitted); err != nil {
		return nil, ts, err
	}

	t0 = time.Now()
	code, data, err = d.do("GET", "/v1/sweeps/{id}/events", "/v1/sweeps/"+admitted.ID+"/events", nil)
	ts.Events = time.Since(t0)
	if err != nil {
		return nil, ts, err
	}
	if code != http.StatusOK {
		return nil, ts, fmt.Errorf("GET events: HTTP %d: %s", code, data)
	}
	// The last line of the stream is the sweep's tally.
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var tally service.Event
	if err := json.Unmarshal(lines[len(lines)-1], &tally); err != nil {
		return nil, ts, fmt.Errorf("GET events: last line: %v", err)
	}
	if tally.Type != "sweep" || tally.Failed != 0 || tally.Done != tally.Total {
		return nil, ts, fmt.Errorf("sweep %s ended with %d of %d jobs done, %d failed", admitted.ID, tally.Done, tally.Total, tally.Failed)
	}

	t0 = time.Now()
	code, data, err = d.do("GET", "/v1/sweeps/{id}/results", "/v1/sweeps/"+admitted.ID+"/results", nil)
	ts.Results = time.Since(t0)
	if err != nil {
		return nil, ts, err
	}
	if code != http.StatusOK {
		return nil, ts, fmt.Errorf("GET results: HTTP %d: %s", code, data)
	}
	return data, ts, nil
}

// sweepSpec is the JSON body of a sweep of apps x the one GPU x sims.
func sweepSpec(apps []string, sims []string, scale float64) []byte {
	spec, err := json.Marshal(service.Spec{Apps: apps, GPUs: []string{theGPU}, Sims: sims, Scale: scale})
	if err != nil {
		panic(err) // a struct of strings and a float always marshals
	}
	return spec
}

func runServicePass(cfg passConfig, rec *passRecord, tr *recorder) error {
	p := cfg.Plan
	endSetup := tr.begin("setup", "")
	remote := p.Workload == "service_remote"
	workers := 0
	if remote {
		workers = 2
	}
	d, err := startDaemon(cfg.OutDir, remote, workers, tr)
	if err != nil {
		return err
	}
	defer d.close()
	spec := sweepSpec(p.Apps, []string{"basic", "memory"}, p.Scale)
	endSetup()

	// Cold sweep: every job misses the cache and simulates (in the
	// per-sweep pool, or on the workers through the lease plane). Timed
	// from the POST to the last result byte.
	var cold []byte
	rec.SetupNS = time.Now().UnixNano() - cfg.SpawnNS
	if cfg.SetupOnly {
		return nil
	}
	err = profiled(cfg, rec, func() {
		endTimed := tr.begin("timed", "")
		m := startMeter()
		body, _, err := d.sweep(spec)
		m.stop(rec)
		endTimed()
		rec.Ops++
		if err != nil {
			rec.fail("cold sweep: %v", err)
			return
		}
		cold = body
	})
	if err != nil {
		return err
	}

	// Warm resubmits: the same spec again, now a cache hit per job.
	endWarm := tr.begin("warm", "")
	warm := make([]float64, 0, p.WarmResubmits)
	for i := 0; i < p.WarmResubmits; i++ {
		body, ts, err := d.sweep(spec)
		rec.Ops++
		switch {
		case err != nil:
			rec.fail("warm sweep %d: %v", i, err)
		case !bytes.Equal(body, cold):
			rec.fail("warm sweep %d: result bytes differ from the cold sweep", i)
		default:
			warm = append(warm, float64(ts.total().Nanoseconds())/1e6)
		}
	}
	endWarm()
	rec.WarmMS = median(warm)

	defer tr.begin("verify", "")()
	st, err := d.stats()
	if err != nil {
		rec.fail("stats: %v", err)
	}
	rec.Stats = map[string]uint64{
		"service.cache_hits":    st.Cache.Hits,
		"service.cache_misses":  st.Cache.Misses,
		"service.store_puts":    st.Store.Puts,
		"service.store_dups":    st.Store.Dups,
		"service.lease_expired": st.Remote.Expired,
		"service.lease_stale":   st.Remote.Stale,
		"service.shed":          st.Shed,
	}
	for _, block := range splitCanonical(cold) {
		if cfg.Corrupt != nil {
			block = cfg.Corrupt("", block)
		}
		jr, err := parseCanonical(block)
		if err != nil {
			rec.fail("cold sweep result: %v", err)
			continue
		}
		rec.Insts += jr.Insts
		rec.Jobs = append(rec.Jobs, jr)
	}
	return nil
}
