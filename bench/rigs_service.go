package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"swiftsim/internal/regress"
	"swiftsim/internal/service"
	"swiftsim/internal/sim"
	"swiftsim/internal/workload"
)

// The service rigs: the result cache and the blob store through their
// exported methods, then the daemon over loopback HTTP on a sweep small
// enough that the per-request layers, not the simulations, are what is
// timed (20 applications, Swift-Sim-Memory, one GPU, rigSweepScale).

const (
	rigBlobs = 200
	rigWarm  = 100
)

// medianOf returns the median of per-operation durations in unit.
func medianOf(ds []time.Duration, unit time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d) / float64(unit)
	}
	return median(vs)
}

// resultBlobs makes n distinct blobs the size and shape of a canonical
// result: one real rendering with a seeded trailer line.
func (r *rigs) resultBlobs(n int) ([][]byte, error) {
	res, err := sim.Run(r.apps[0], r.gpu, sim.Options{Kind: sim.Memory})
	if err != nil {
		return nil, err
	}
	base := regress.Canonical(res)
	blobs := make([][]byte, n)
	for i := range blobs {
		blobs[i] = append(append([]byte(nil), base...), fmt.Sprintf("rig %d %d\n", i, r.rng.Uint64())...)
	}
	return blobs, nil
}

// serviceLayers: Store.Put / Store.Get and Cache.Fulfill / Cache.Claim
// (hit), each on fresh directories, one operation per distinct blob.
func (r *rigs) serviceLayers() error {
	blobs, err := r.resultBlobs(rigBlobs)
	if err != nil {
		return fmt.Errorf("service layer rig: %w", err)
	}
	dir, err := os.MkdirTemp(r.cfg.OutDir, "rig-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	store, err := service.NewStore(dir + "/store")
	if err != nil {
		return err
	}
	hashes := make([]string, len(blobs))
	puts := make([]time.Duration, len(blobs))
	gets := make([]time.Duration, len(blobs))
	for i, b := range blobs {
		t0 := time.Now()
		hashes[i], err = store.Put(b)
		puts[i] = time.Since(t0)
		if err != nil {
			return fmt.Errorf("store rig: put: %w", err)
		}
	}
	for i, h := range hashes {
		t0 := time.Now()
		_, err := store.Get(h)
		gets[i] = time.Since(t0)
		if err != nil {
			return fmt.Errorf("store rig: get: %w", err)
		}
	}
	r.out["service.store_put_us"] = medianOf(puts, time.Microsecond)
	r.out["service.store_get_us"] = medianOf(gets, time.Microsecond)

	cache, err := service.NewCache(dir + "/cache")
	if err != nil {
		return err
	}
	keys := make([]string, len(blobs))
	fulfills := make([]time.Duration, len(blobs))
	claims := make([]time.Duration, len(blobs))
	for i, b := range blobs {
		sum := sha256.Sum256([]byte(fmt.Sprintf("rig key %d", i)))
		keys[i] = hex.EncodeToString(sum[:])
		_, hit, owner, flight := cache.Claim(keys[i])
		if hit || !owner {
			return fmt.Errorf("cache rig: first claim of a fresh key was not an owned miss")
		}
		t0 := time.Now()
		err := cache.Fulfill(flight, b)
		fulfills[i] = time.Since(t0)
		if err != nil {
			return fmt.Errorf("cache rig: fulfill: %w", err)
		}
	}
	for i, k := range keys {
		t0 := time.Now()
		_, hit, _, _ := cache.Claim(k)
		claims[i] = time.Since(t0)
		if !hit {
			return fmt.Errorf("cache rig: claim of a fulfilled key missed")
		}
	}
	r.out["service.cache_fulfill_us"] = medianOf(fulfills, time.Microsecond)
	r.out["service.cache_claim_hit_us"] = medianOf(claims, time.Microsecond)
	return nil
}

// serviceHTTP: the client-visible steps of a cold sweep and of warm
// resubmits against a local daemon, and a blob's POST + GET round trip.
func (r *rigs) serviceHTTP() error {
	d, err := startDaemon(r.cfg.OutDir, false, 0, nil)
	if err != nil {
		return fmt.Errorf("service http rig: %w", err)
	}
	defer d.close()
	spec := sweepSpec(workload.Names(), []string{"memory"}, rigSweepScale)
	_, cold, err := d.sweep(spec)
	if err != nil {
		return fmt.Errorf("service http rig: cold sweep: %w", err)
	}
	r.out["service.submit_cold_ms"] = float64(cold.Submit.Nanoseconds()) / 1e6

	var submit, events, results, total []time.Duration
	for i := 0; i < rigWarm; i++ {
		_, ts, err := d.sweep(spec)
		if err != nil {
			return fmt.Errorf("service http rig: warm sweep: %w", err)
		}
		submit = append(submit, ts.Submit)
		events = append(events, ts.Events)
		results = append(results, ts.Results)
		total = append(total, ts.total())
	}
	r.out["service.submit_warm_ms"] = medianOf(submit, time.Millisecond)
	r.out["service.events_ms"] = medianOf(events, time.Millisecond)
	r.out["service.results_ms"] = medianOf(results, time.Millisecond)
	// 100 samples leave five beyond the 95th percentile; the workload's
	// own warm_ms is the median of 400.
	sort.Slice(total, func(i, j int) bool { return total[i] < total[j] })
	r.out["service.warm_p95_ms"] = float64(total[len(total)*95/100].Nanoseconds()) / 1e6

	blobs, err := r.resultBlobs(rigWarm)
	if err != nil {
		return err
	}
	rtts := make([]time.Duration, len(blobs))
	for i, b := range blobs {
		t0 := time.Now()
		hash, err := d.publish(b)
		if err != nil {
			return fmt.Errorf("service http rig: %w", err)
		}
		code, _, err := d.do("GET", "/v1/store/{hash}", "/v1/store/"+hash, nil)
		rtts[i] = time.Since(t0)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("service http rig: GET /v1/store: HTTP %d: %v", code, err)
		}
	}
	r.out["service.http_store_rtt_ms"] = medianOf(rtts, time.Millisecond)
	return nil
}

// publish POSTs a blob to the daemon's store and returns its hash.
func (d *daemon) publish(blob []byte) (string, error) {
	code, data, err := d.do("POST", "/v1/store", "/v1/store", blob)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("POST /v1/store: HTTP %d: %s", code, data)
	}
	var reply struct {
		Hash string `json:"hash"`
	}
	return reply.Hash, json.Unmarshal(data, &reply)
}

// leasePlane: the harness is the worker. Against a Remote-enabled daemon
// with no worker of its own it registers, and for every job of the rig
// sweep claims a lease, publishes a precomputed blob and commits it; no
// simulation runs, so what is timed is the lease plane.
func (r *rigs) leasePlane() error {
	d, err := startDaemon(r.cfg.OutDir, true, 0, nil)
	if err != nil {
		return fmt.Errorf("lease rig: %w", err)
	}
	defer d.close()

	names := workload.Names()
	blobs, err := r.resultBlobs(len(names))
	if err != nil {
		return err
	}
	code, data, err := d.do("POST", "/v1/workers", "/v1/workers", []byte(`{"name":"bench-rig"}`))
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("lease rig: register: HTTP %d: %v", code, err)
	}
	var reg struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &reg); err != nil {
		return err
	}
	code, data, err = d.do("POST", "/v1/sweeps", "/v1/sweeps", sweepSpec(names, []string{"memory"}, rigSweepScale))
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("lease rig: submit: HTTP %d: %v: %s", code, err, data)
	}
	var admitted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &admitted); err != nil {
		return err
	}

	rtts := make([]time.Duration, 0, len(names))
	for i := range names {
		t0 := time.Now()
		code, data, err := d.do("POST", "/v1/workers/{id}/claim", "/v1/workers/"+reg.ID+"/claim?wait=10s", nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("lease rig: claim %d: HTTP %d: %v", i, code, err)
		}
		var job service.WireJob
		if err := json.Unmarshal(data, &job); err != nil {
			return err
		}
		hash, err := d.publish(blobs[i])
		if err != nil {
			return fmt.Errorf("lease rig: %w", err)
		}
		commit, err := json.Marshal(map[string]any{"token": job.Token, "result": hash})
		if err != nil {
			return err
		}
		code, data, err = d.do("POST", "/v1/leases/{id}/result", "/v1/leases/"+job.LeaseID+"/result", commit)
		rtts = append(rtts, time.Since(t0))
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("lease rig: commit %d: HTTP %d: %v: %s", i, code, err, data)
		}
	}
	// The sweep must now complete, every job served by a commit.
	var st service.Status
	for deadline := time.Now().Add(5 * time.Second); !st.Done && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		code, data, err := d.do("GET", "/v1/sweeps/{id}", "/v1/sweeps/"+admitted.ID, nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("lease rig: status: HTTP %d: %v", code, err)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return err
		}
	}
	if !st.Done || st.Ok != len(names) {
		return fmt.Errorf("lease rig: sweep ended with %d of %d jobs ok", st.Ok, len(names))
	}
	r.out["service.lease_rtt_ms"] = medianOf(rtts, time.Millisecond)
	return nil
}
