// Command swiftsimd is the Swift-Sim sweep daemon: a long-running HTTP
// service that accepts sweep specifications (applications × GPU presets ×
// simulator kinds), posts every job the cache cannot answer to one job
// board, and serves per-job progress and byte-stable canonical results.
// Identical jobs are served from a persistent on-disk cache, across
// requests and across restarts.
//
// API (see internal/service):
//
//	POST /v1/sweeps              submit {"apps":[...],"gpus":[...],"sims":[...],"scale":0.1}
//	GET  /v1/sweeps/{id}         poll status
//	GET  /v1/sweeps/{id}/events  stream NDJSON progress
//	GET  /v1/sweeps/{id}/results fetch canonical metrics
//	GET  /v1/stats               cache and queue counters
//	GET  /healthz                liveness
//
// Jobs on the board run wherever they are claimed. The daemon's own
// -threads executors claim in-process; swiftsim-worker processes claim
// over the same HTTP API (worker registration, long-poll claims whose
// grant names the job's inputs — catalog application, scale, GPU
// configuration text, options — heartbeat-renewed leases with requeue on
// worker loss, and a content-addressed blob store carrying canonical
// results back by hash), and may do so alongside the executors. A worker
// rebuilds the trace, and refuses a job whose inputs do not derive the
// grant's cache key, so daemon and workers must be one build. -remote
// means only that the daemon starts no executors of its own, so every
// job waits for a worker.
//
// SIGINT/SIGTERM triggers a graceful drain: in-flight and queued sweeps
// get -drain-timeout to finish before being hard-canceled.
//
// Usage:
//
//	swiftsimd -addr :8080 -cache-dir /var/cache/swiftsim [-queue-depth 64]
//	          [-threads 8] [-max-job-timeout 5m] [-drain-timeout 30s]
//	          [-epoch-cycles 8] [-sample]
//	          [-remote -lease-ttl 10s -lease-retries 3]
//
// The execution-mode flags (-epoch-cycles, -sample, -sample-frac,
// -sample-stride) are the block every front end shares (cliutil.RunFlags);
// here they are the daemon-wide default for specs that leave epoch_cycles
// or sample unset. -threads is how many jobs the daemon runs at a time.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"swiftsim/internal/cliutil"
	"swiftsim/internal/obs"
	"swiftsim/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(realMain(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the daemon until ctx is canceled and returns the process
// exit code: 0 after a clean drain, 1 on startup failure or when the
// drain deadline forced a hard cancel. Split from main so tests can drive
// the full lifecycle.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swiftsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	cacheDir := fs.String("cache-dir", "swiftsim-cache", "persistent result cache directory")
	queueDepth := fs.Int("queue-depth", 64, "max queued+running jobs before submissions are shed with 429")
	threads := fs.Int("threads", 0, "the daemon's executor count: jobs its in-process claimants run at a time across all sweeps (0 = NumCPU; unused with -remote)")
	maxJobTimeout := fs.Duration("max-job-timeout", 5*time.Minute, "cap and default for per-job wall-clock budgets (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for queued sweeps on shutdown")
	runFlags := cliutil.RunFlags(fs)
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON file for all sweeps")
	traceLevel := fs.String("trace-level", "kernel", "trace detail: off|kernel|module|request")
	remote := fs.Bool("remote", false, "start no in-process executors: every job waits for a swiftsim-worker process to claim it over HTTP (without it, registered workers claim alongside the daemon's executors)")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "how long a job claimed by a swiftsim-worker survives without its heartbeat before it is requeued")
	leaseRetries := fs.Int("lease-retries", 3, "how many expired worker leases a job may burn through before failing terminally")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	defaults, err := runFlags()
	if err != nil {
		fmt.Fprintln(stderr, "swiftsimd:", err)
		return 1
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		level, err := obs.ParseLevel(*traceLevel)
		if err != nil {
			fmt.Fprintf(stderr, "swiftsimd: -trace-level: %v\n", err)
			return 1
		}
		if level == obs.Off {
			fmt.Fprintf(stderr, "swiftsimd: warning: -trace-out %s ignored because -trace-level is off; no trace file will be written\n", *traceOut)
		} else {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(stderr, "swiftsimd: -trace-out: %v\n", err)
				return 1
			}
			rec := obs.NewJSONStream(f)
			defer func() {
				if cerr := rec.Close(); cerr != nil {
					fmt.Fprintf(stderr, "swiftsimd: -trace-out: %v\n", cerr)
				}
			}()
			tracer = obs.New(rec, level)
		}
	}

	if *leaseTTL <= 0 || *leaseRetries < 1 {
		fmt.Fprintln(stderr, "swiftsimd: -lease-ttl must be > 0 and -lease-retries >= 1")
		return 1
	}
	svc, err := service.New(service.Config{
		CacheDir:      *cacheDir,
		QueueDepth:    *queueDepth,
		Threads:       *threads,
		MaxJobTimeout: *maxJobTimeout,
		Defaults:      defaults,
		Trace:         tracer,
		Remote: service.RemoteConfig{
			Enabled:     *remote,
			LeaseTTL:    *leaseTTL,
			MaxAttempts: *leaseRetries,
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "swiftsimd:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "swiftsimd:", err)
		return 1
	}
	// The resolved address is printed (not just the flag value) so
	// ":0"-style addresses are usable by scripts and tests.
	fmt.Fprintf(stdout, "swiftsimd: listening on http://%s (cache %s, queue depth %d)\n",
		ln.Addr(), *cacheDir, *queueDepth)

	srv := &http.Server{Handler: service.NewHandler(svc)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "swiftsimd:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, then give queued and
	// in-flight sweeps the grace period before hard-canceling them.
	fmt.Fprintf(stdout, "swiftsimd: shutting down (drain %v)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "swiftsimd: http shutdown: %v\n", err)
	}
	if err := svc.Close(dctx); err != nil {
		fmt.Fprintf(stderr, "swiftsimd: drain deadline exceeded, in-flight jobs canceled: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "swiftsimd: drained cleanly")
	return 0
}
