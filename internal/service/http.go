package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// maxBlobBytes bounds a published blob (a canonical result); anything
// larger is rejected before it is buffered.
const maxBlobBytes = 256 << 20

// NewHandler serves the service's HTTP/JSON API:
//
//	POST /v1/sweeps             submit a Spec        → 202 {"id":..., "jobs":...}
//	GET  /v1/sweeps/{id}        poll a sweep         → 200 Status
//	GET  /v1/sweeps/{id}/events stream progress      → 200 NDJSON Events
//	GET  /v1/sweeps/{id}/results fetch results       → 200 canonical metrics
//	GET  /v1/stats              service counters     → 200 Stats
//	GET  /healthz               liveness             → 200 "ok"
//
// and the lease board as remote workers see it (lease.go, worker.go). These
// serve on every daemon: with -remote off a registered worker claims
// alongside the daemon's own executors.
//
//	POST /v1/workers                  register         → 200 {"id","lease_ttl_ms","heartbeat_ms"} | 409 another build
//	POST /v1/workers/{id}/claim       long-poll a job  → 200 WireJob (inputs by name) | 204 none
//	POST /v1/workers/{id}/heartbeat   renew leases     → 200 {"renewed","lost"}
//	POST /v1/leases/{id}/result       commit a result  → 200 {} (by store hash)
//	POST /v1/leases/{id}/error        report a failure → 200 {}
//	GET  /v1/store/{hash}             fetch a blob     → 200 bytes
//	POST /v1/store                    publish a blob   → 200 {"hash"}
//
// Error mapping: invalid specs → 400, unknown sweeps/workers/blobs →
// 404, stale leases (fencing violations) and workers of another build →
// 409, a full queue → 429
// (with a jittered Retry-After), draining → 503.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
			return
		}
		sw, err := s.Submit(spec)
		if err != nil {
			switch {
			case errors.Is(err, ErrQueueFull):
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds()))
				httpError(w, http.StatusTooManyRequests, err)
			case errors.Is(err, ErrDraining):
				httpError(w, http.StatusServiceUnavailable, err)
			default:
				httpError(w, http.StatusBadRequest, err)
			}
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{
			"id": sw.ID(), "jobs": sw.total,
		})
	})

	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		sw, err := s.Sweep(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, sw.Status())
	})

	mux.HandleFunc("GET /v1/sweeps/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		sw, err := s.Sweep(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		from := 0
		if v := r.URL.Query().Get("from"); v != "" {
			if from, err = strconv.Atoi(v); err != nil || from < 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad from=%q", v))
				return
			}
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		for {
			evs, done, err := sw.WaitEvents(r.Context(), from)
			if err != nil {
				return // client went away
			}
			for _, ev := range evs {
				if err := enc.Encode(ev); err != nil {
					return
				}
			}
			from += len(evs)
			if flusher != nil {
				flusher.Flush()
			}
			if done {
				return
			}
		}
	})

	mux.HandleFunc("GET /v1/sweeps/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		sw, err := s.Sweep(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		body, err := sw.Results()
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})

	// ---- The lease board, for remote workers ----

	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		// The body's "name" labels the worker in its own logs only. Its
		// "version" is the worker's build: grant keys fold in the code
		// version, so a worker of another build would refuse every job, and
		// it is turned away before it claims one. A registration that states
		// no version (a hand-driven client) is accepted.
		var req struct {
			Name    string `json:"name"`
			Version string `json:"version"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding registration: %w", err))
			return
		}
		if req.Version != "" && req.Version != codeVersion {
			httpError(w, http.StatusConflict, fmt.Errorf("worker built at %s, daemon at %s: run both from one build", req.Version, codeVersion))
			return
		}
		id := s.board.Register(false)
		writeJSON(w, http.StatusOK, map[string]any{
			"id":           id,
			"lease_ttl_ms": s.board.ttl.Milliseconds(),
			// Three heartbeats per TTL tolerate two lost in a row.
			"heartbeat_ms": (s.board.ttl / 3).Milliseconds(),
		})
	})

	mux.HandleFunc("POST /v1/workers/{id}/claim", func(w http.ResponseWriter, r *http.Request) {
		wait := 25 * time.Second
		if v := r.URL.Query().Get("wait"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad wait=%q", v))
				return
			}
			if d > time.Minute {
				d = time.Minute
			}
			wait = d
		}
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		l, err := s.board.Claim(ctx, r.PathValue("id"))
		switch {
		case errors.Is(err, ErrUnknownWorker):
			httpError(w, http.StatusNotFound, err)
		case errors.Is(err, errBoardClosed):
			httpError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			httpError(w, http.StatusInternalServerError, err)
		case l == nil:
			w.WriteHeader(http.StatusNoContent)
		default:
			writeJSON(w, http.StatusOK, s.board.Wire(l))
		}
	})

	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Leases []string `json:"leases"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding heartbeat: %w", err))
			return
		}
		renewed, lost, err := s.board.Heartbeat(r.PathValue("id"), req.Leases)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"renewed": renewed, "lost": lost})
	})

	mux.HandleFunc("POST /v1/leases/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Token  uint64 `json:"token"`
			Result string `json:"result"` // store hash of the canonical bytes
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding result: %w", err))
			return
		}
		// The result must be readable (and pass its integrity check)
		// before the lease commits — a commit is irrevocable.
		data, err := s.store.Get(req.Result)
		if err != nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("result blob: %w", err))
			return
		}
		if err := s.board.Fulfill(r.PathValue("id"), req.Token, data, req.Result); err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{})
	})

	mux.HandleFunc("POST /v1/leases/{id}/error", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Token uint64 `json:"token"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding error report: %w", err))
			return
		}
		if req.Error == "" {
			req.Error = "unspecified worker error"
		}
		// This endpoint is the only place a job failure loses its error
		// value: an executor's Fail keeps it for errors.Is.
		if err := s.board.Fail(r.PathValue("id"), req.Token, fmt.Errorf("worker %s: %s", r.PathValue("id"), req.Error)); err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{})
	})

	mux.HandleFunc("GET /v1/store/{hash}", func(w http.ResponseWriter, r *http.Request) {
		data, err := s.store.Get(r.PathValue("hash"))
		if err != nil {
			// A corrupt blob was evicted; to the client both cases read
			// as absence.
			httpError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	})

	mux.HandleFunc("POST /v1/store", func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
		if err != nil {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("reading blob: %w", err))
			return
		}
		hash, err := s.store.Put(data)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"hash": hash})
	})

	return mux
}

// retryAfterSeconds jitters the 429 Retry-After value uniformly over
// [1,3] seconds. A constant would synchronize a whole worker/client
// fleet shed at the same instant into retrying in lockstep and being
// shed again together; the jitter spreads the retry wave out.
func retryAfterSeconds() int { return 1 + rand.IntN(3) }

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError writes a JSON error body so clients never have to parse
// free-form text.
func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
