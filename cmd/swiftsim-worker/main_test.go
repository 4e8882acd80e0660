package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"swiftsim/internal/service"
)

// syncBuffer is an io.Writer the worker goroutine writes while the test
// reads.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestWorkerLifecycle boots realMain against a Remote-enabled in-process
// daemon, lets it execute one sweep job, then cancels the context and
// expects a clean exit with a stats line.
func TestWorkerLifecycle(t *testing.T) {
	svc, err := service.New(service.Config{
		CacheDir: t.TempDir(),
		Remote:   service.RemoteConfig{Enabled: true, LeaseTTL: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	var out, errw syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- realMain(ctx, []string{"-daemon", srv.URL, "-name", "t-worker", "-poll", "200ms"}, &out, &errw)
	}()

	spec := `{"apps":["BFS"],"gpus":["RTX2080Ti"],"sims":["memory"],"scale":0.1}`
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/sweeps/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st service.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Done {
			if st.Ok != 1 || st.Failed != 0 {
				t.Fatalf("sweep status: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never finished on the worker")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err = http.Get(srv.URL + "/v1/sweeps/" + sub.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "swiftsim-canonical 1") {
		t.Fatalf("results not canonical:\n%s", body)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errw.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not stop")
	}
	if s := out.String(); !strings.Contains(s, "t-worker pulling from") || !strings.Contains(s, "done 1") {
		t.Errorf("worker output missing banner or stats:\n%s", s)
	}
}

func TestWorkerBadFlags(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-jobs", "0"},
		{"-engine-threads", "-1"},
	}
	for _, args := range cases {
		var out, errw syncBuffer
		if code := realMain(context.Background(), args, &out, &errw); code != 1 {
			t.Errorf("realMain(%v) = %d, want 1", args, code)
		}
	}
}

// TestWorkerRegistrationRejected: a daemon that answers but refuses the
// registration (here: a plain 404 mux) is a terminal startup failure,
// not a retry loop.
func TestWorkerRegistrationRejected(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	var out, errw syncBuffer
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if code := realMain(ctx, []string{"-daemon", srv.URL}, &out, &errw); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "registration rejected") {
		t.Errorf("stderr does not explain the rejection:\n%s", errw.String())
	}
}

// TestWorkerStoppedBeforeItsDaemonIsUp: a stop signal that arrives while the
// worker is still retrying an unreachable daemon is a clean stop, exit 0
// with the stats line and nothing on stderr, the same as one that arrives
// later.
func TestWorkerStoppedBeforeItsDaemonIsUp(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // the address now refuses connections
	ctx, cancel := context.WithCancel(context.Background())
	var out, errw syncBuffer
	done := make(chan int, 1)
	go func() { done <- realMain(ctx, []string{"-daemon", srv.URL, "-name", "early"}, &out, &errw) }()
	time.Sleep(50 * time.Millisecond) // into the first backoff
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit = %d, want 0; stderr:\n%s", code, errw.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit")
	}
	if errw.String() != "" || !strings.Contains(out.String(), "stopping (claimed 0") {
		t.Errorf("stdout %q, stderr %q; want the stats line and no error", out.String(), errw.String())
	}
}
