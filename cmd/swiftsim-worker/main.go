// Command swiftsim-worker is the remote execution arm of the swiftsimd
// sweep daemon: it registers with a daemon over HTTP, long-polls for
// simulation job leases, builds each job's trace from the catalog
// application and scale its grant names and parses the GPU configuration
// text the grant carries, simulates locally with the same runner guarantees
// the daemon has (panic isolation, per-job deadlines), and publishes the
// byte-stable canonical result back by hash. Inputs travel by name, results
// by hash.
//
// Before it simulates, the worker derives the job's cache key from what it
// built and refuses the job (a reported error, the job fails) unless it is
// the key in the grant. The key covers the trace content, the
// configuration, the options and the code version, so a worker built from
// another commit than its daemon refuses every job rather than commit its
// bytes under the daemon's key: run the two from one build.
//
// Any number of workers may serve one daemon — job ownership is a
// heartbeat-renewed lease, so a worker that crashes or loses its
// network mid-job simply stops heartbeating and the daemon requeues the
// job to another worker. Results are canonical, so every worker
// produces identical bytes for a given job; which worker runs a job
// never changes what the client receives.
//
// Usage:
//
//	swiftsim-worker -daemon http://host:8080 [-name lab-3] [-jobs 2]
//	                [-poll 25s]
//
// SIGINT/SIGTERM stops the worker; jobs in flight are abandoned and
// requeued by the daemon after the lease TTL.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"swiftsim/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(realMain(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the worker until ctx is canceled and returns the process
// exit code: 0 after a clean stop (also one that comes while the daemon is
// still unreachable), 1 on bad flags or a daemon that rejects the worker.
// Split from main so tests can drive the full lifecycle.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swiftsim-worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	daemon := fs.String("daemon", "http://127.0.0.1:8080", "swiftsimd base URL to pull jobs from")
	name := fs.String("name", "", "worker label in daemon accounting (default: the hostname)")
	jobs := fs.Int("jobs", 1, "jobs executed concurrently on this worker")
	poll := fs.Duration("poll", 25*time.Second, "long-poll duration per claim request")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *jobs < 1 {
		fmt.Fprintln(stderr, "swiftsim-worker: -jobs must be >= 1")
		return 1
	}
	if *name == "" {
		if host, err := os.Hostname(); err == nil {
			*name = host
		} else {
			*name = "worker"
		}
	}

	w := service.NewWorker(service.WorkerConfig{
		BaseURL:  *daemon,
		Name:     *name,
		Jobs:     *jobs,
		PollWait: *poll,
	})
	fmt.Fprintf(stdout, "swiftsim-worker: %s pulling from %s (%d job slot(s))\n", *name, *daemon, *jobs)
	if err := w.Run(ctx); err != nil {
		fmt.Fprintln(stderr, "swiftsim-worker:", err)
		return 1
	}
	st := w.Stats()
	fmt.Fprintf(stdout, "swiftsim-worker: stopping (claimed %d, done %d, failed %d, lost %d)\n",
		st.Claimed, st.Done, st.Failed, st.Lost)
	return 0
}
