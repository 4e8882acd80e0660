package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is an io.Writer the daemon goroutine writes while the test
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

var listenRE = regexp.MustCompile(`listening on (http://[^ ]+)`)

// startDaemon launches realMain on an ephemeral port and returns its base
// URL, a shutdown trigger and the exit-code channel.
func startDaemon(t *testing.T, args ...string) (url string, stop func(), done chan int, out *syncBuffer, errw *syncBuffer) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out, errw = &syncBuffer{}, &syncBuffer{}
	done = make(chan int, 1)
	full := append([]string{"-addr", "127.0.0.1:0", "-cache-dir", t.TempDir()}, args...)
	go func() { done <- realMain(ctx, full, out, errw) }()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return m[1], cancel, done, out, errw
		}
		select {
		case code := <-done:
			t.Fatalf("daemon exited %d before listening; stderr:\n%s", code, errw.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	cancel()
	t.Fatal("daemon never printed its address")
	return "", nil, nil, nil, nil
}

// TestDaemonLifecycle boots the daemon, runs one sweep through the HTTP
// API, then triggers the signal path and expects a clean drain (exit 0).
func TestDaemonLifecycle(t *testing.T) {
	url, stop, done, out, errw := startDaemon(t)

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	spec := `{"apps":["BFS"],"gpus":["RTX2080Ti"],"sims":["memory"],"scale":0.1}`
	resp, err = http.Post(url+"/v1/sweeps", "application/json", strings.NewReader(spec))
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

	// The events stream terminates when the sweep does.
	resp, err = http.Get(url + "/v1/sweeps/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(stream), `"type":"sweep"`) {
		t.Fatalf("event stream did not complete (%v):\n%s", err, stream)
	}

	resp, err = http.Get(url + "/v1/sweeps/" + sub.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "swiftsim-canonical 1") {
		t.Fatalf("results = %d:\n%s", resp.StatusCode, body)
	}

	stop()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errw.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Errorf("missing drain confirmation:\n%s", out.String())
	}
}

func TestDaemonBadFlag(t *testing.T) {
	var out, errw syncBuffer
	if code := realMain(context.Background(), []string{"-no-such-flag"}, &out, &errw); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
}

// TestDaemonRejectsBadExecutionMode mirrors the cmd/sweep check: a daemon
// default with no reading is rejected at startup, in the flags' own names.
func TestDaemonRejectsBadExecutionMode(t *testing.T) {
	var out, errw syncBuffer
	code := realMain(context.Background(),
		[]string{"-epoch-cycles", "-2"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "-epoch-cycles -2") {
		t.Errorf("stderr does not name the rejected flag:\n%s", errw.String())
	}
}

// TestDaemonBadRemoteFlags: nonsensical lease tuning is rejected at
// startup rather than surfacing as runaway requeue behavior later.
func TestDaemonBadRemoteFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-remote", "-lease-ttl", "0s"},
		{"-remote", "-lease-ttl", "-5s"},
		{"-remote", "-lease-retries", "0"},
	} {
		var out, errw syncBuffer
		if code := realMain(context.Background(), args, &out, &errw); code != 1 {
			t.Errorf("realMain(%v) = %d, want 1", args, code)
		}
	}
}

func TestDaemonBadTraceLevel(t *testing.T) {
	var out, errw syncBuffer
	code := realMain(context.Background(),
		[]string{"-trace-out", "x.json", "-trace-level", "bogus"}, &out, &errw)
	if code != 1 || !strings.Contains(errw.String(), "trace level") {
		t.Fatalf("exit = %d, stderr:\n%s", code, errw.String())
	}
}

// TestDaemonTraceLevelOffWarns mirrors the cmd/sweep satellite: -trace-out
// with the level off is called out instead of silently writing nothing.
func TestDaemonTraceLevelOffWarns(t *testing.T) {
	url, stop, done, _, errw := startDaemon(t,
		"-trace-out", t.TempDir()+"/trace.json", "-trace-level", "off")
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(errw.String(), "warning") {
		t.Errorf("no warning about ignored -trace-out:\n%s", errw.String())
	}
	stop()
	<-done
}

// TestDaemonWritesProfilesOnShutdown: -cpuprofile and -memprofile write
// their files when the daemon exits after its drain, and not before.
func TestDaemonWritesProfilesOnShutdown(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	_, stop, done, _, errw := startDaemon(t, "-cpuprofile", cpu, "-memprofile", heap)
	if _, err := os.Stat(heap); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("heap profile before shutdown: %v, want none yet", err)
	}
	stop()
	if code := <-done; code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errw.String())
	}
	for _, path := range []string{cpu, heap} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s after shutdown: %v, want a non-empty profile", filepath.Base(path), err)
		}
	}
}
