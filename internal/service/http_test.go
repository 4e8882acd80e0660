package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newHTTPService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := newService(t, cfg)
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)
	return s, srv
}

func postSweep(t *testing.T, srv *httptest.Server, spec string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, body
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// waitHTTPDone polls the status endpoint until the sweep completes.
func waitHTTPDone(t *testing.T, srv *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, data := getBody(t, srv.URL+"/v1/sweeps/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d: %s", id, code, data)
		}
		var st Status
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.Done {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish", id)
	return Status{}
}

const specJSON = `{"apps":["BFS"],"gpus":["RTX2080Ti"],"sims":["memory"],"scale":0.1}`

// TestHTTPEndToEnd drives the full client workflow over the wire: submit,
// stream progress as NDJSON, fetch canonical results, then resubmit and
// observe the cache hit — byte-identical bodies and a bumped hit counter.
func TestHTTPEndToEnd(t *testing.T) {
	_, srv := newHTTPService(t, Config{})

	code, body := postSweep(t, srv, specJSON)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %v", code, body)
	}
	id := body["id"].(string)
	if body["jobs"].(float64) != 1 {
		t.Fatalf("jobs = %v, want 1", body["jobs"])
	}

	// Stream the progress feed to the end and validate its shape.
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	last := events[len(events)-1]
	if last.Type != "sweep" || last.Done != 1 || last.Failed != 0 {
		t.Errorf("final event = %+v, want sweep tally 1/0", last)
	}

	st := waitHTTPDone(t, srv, id)
	if st.Ok != 1 || st.Cached != 0 {
		t.Fatalf("first run status: %+v", st)
	}
	code, res1 := getBody(t, srv.URL+"/v1/sweeps/"+id+"/results")
	if code != http.StatusOK || !bytes.Contains(res1, []byte("swiftsim-canonical 1")) {
		t.Fatalf("results: HTTP %d:\n%s", code, res1)
	}

	// Identical resubmission, as a client of the sharded engine spelled it:
	// the spec has no engine_threads field any more, the decoder ignores
	// it, and it never was in the key. Served from the persistent cache.
	code, body = postSweep(t, srv, strings.Replace(specJSON, "}", `,"engine_threads":2}`, 1))
	if code != http.StatusAccepted {
		t.Fatalf("second POST = %d: %v", code, body)
	}
	id2 := body["id"].(string)
	st2 := waitHTTPDone(t, srv, id2)
	if st2.Cached != 1 {
		t.Fatalf("second run not cached: %+v", st2)
	}
	code, res2 := getBody(t, srv.URL+"/v1/sweeps/"+id2+"/results")
	if code != http.StatusOK || !bytes.Equal(res1, res2) {
		t.Errorf("cached results differ (HTTP %d)", code)
	}

	code, data := getBody(t, srv.URL+"/v1/stats")
	var stats Stats
	if err := json.Unmarshal(data, &stats); err != nil || code != http.StatusOK {
		t.Fatalf("stats: HTTP %d, %v", code, err)
	}
	if stats.Cache.Hits < 1 || stats.Cache.Misses != 1 {
		t.Errorf("stats = %+v, want >=1 hit and exactly 1 miss", stats.Cache)
	}
}

// TestHTTPShedding: a full queue responds 429 with Retry-After while the
// in-flight sweep still completes.
func TestHTTPShedding(t *testing.T) {
	s, srv := newHTTPService(t, Config{QueueDepth: 1})
	release := make(chan struct{})
	s.execHook = func(*Sweep) { <-release }

	code, body := postSweep(t, srv, specJSON)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %v", code, body)
	}
	id := body["id"].(string)

	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload POST = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(release)
	if st := waitHTTPDone(t, srv, id); st.Failed != 0 {
		t.Errorf("in-flight sweep failed during shedding: %+v", st)
	}
}

// TestRetryAfterJitterBounds: the 429 Retry-After is uniform over [1,3]
// seconds — never zero or negative, never past the window, and actually
// jittered (a constant would retry a shed fleet in lockstep).
func TestRetryAfterJitterBounds(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := retryAfterSeconds()
		if v < 1 || v > 3 {
			t.Fatalf("retryAfterSeconds() = %d, want within [1,3]", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("retryAfterSeconds() produced only %v over 1000 draws; no jitter", seen)
	}
}

// TestHTTPErrors pins the error status mapping.
func TestHTTPErrors(t *testing.T) {
	s, srv := newHTTPService(t, Config{})

	if code, _ := postSweep(t, srv, `{"sims":["quantum"]}`); code != http.StatusBadRequest {
		t.Errorf("unknown sim POST = %d, want 400", code)
	}
	if code, _ := postSweep(t, srv, `not json`); code != http.StatusBadRequest {
		t.Errorf("bad JSON POST = %d, want 400", code)
	}
	if code, _ := getBody(t, srv.URL+"/v1/sweeps/s999"); code != http.StatusNotFound {
		t.Errorf("unknown sweep GET = %d, want 404", code)
	}
	if code, _ := getBody(t, srv.URL+"/v1/sweeps/s999/results"); code != http.StatusNotFound {
		t.Errorf("unknown sweep results = %d, want 404", code)
	}
	if code, body := getBody(t, srv.URL+"/healthz"); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}

	// Results of an unfinished sweep: 409.
	release := make(chan struct{})
	s.execHook = func(*Sweep) { <-release }
	code, body := postSweep(t, srv, specJSON)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	id := fmt.Sprint(body["id"])
	if code, _ := getBody(t, srv.URL+"/v1/sweeps/"+id+"/results"); code != http.StatusConflict {
		t.Errorf("unfinished results = %d, want 409", code)
	}
	close(release)
	waitHTTPDone(t, srv, id)
}

// TestHTTPEventsResume: a client reconnecting with ?from= skips events it
// already has.
func TestHTTPEventsResume(t *testing.T) {
	_, srv := newHTTPService(t, Config{})
	code, body := postSweep(t, srv, specJSON)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	id := body["id"].(string)
	waitHTTPDone(t, srv, id)

	_, all := getBody(t, srv.URL+"/v1/sweeps/"+id+"/events")
	lines := strings.Count(strings.TrimSpace(string(all)), "\n") + 1
	if lines < 2 {
		t.Fatalf("only %d events", lines)
	}
	_, tail := getBody(t, srv.URL+"/v1/sweeps/"+id+"/events?from="+fmt.Sprint(lines-1))
	var last Event
	if err := json.Unmarshal(bytes.TrimSpace(tail), &last); err != nil {
		t.Fatalf("resumed stream %q: %v", tail, err)
	}
	if last.Seq != lines-1 || last.Type != "sweep" {
		t.Errorf("resumed event = %+v, want the final sweep event", last)
	}
}
