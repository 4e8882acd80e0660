package service

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime/debug"

	"swiftsim/internal/config"
	"swiftsim/internal/memo"
	"swiftsim/internal/regress"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
)

// keySchema versions the key derivation itself; bump it when the fields
// folded into the key change. Schema 4 hashes sim.Options.Identity in
// place of a field list of its own; schema 5 hashes a config.Marshal text
// without sm.warp_size, l1.streaming and l2.streaming; schema 6 hashes an
// Identity without maxcycles, latencyscale and overhead, whose hit-rate
// source is FunctionalCaches for every kind but Memory; schema 7 hashes a
// trace content hash that hashes evenly spaced lanes as lane 0 and a stride
// ("swiftsim-trace-hash 2").
const keySchema = "swiftsim-service-key 7"

// jobKey derives the persistent cache key of one simulation job. Two jobs
// share a key exactly when they are guaranteed byte-identical canonical
// results, so the key folds in everything that affects them:
//
//   - the canonical rendering format (regress.CanonicalVersion);
//   - the code version (VCS revision when built from a checkout) — any
//     code change may legitimately move metrics, so a new build starts
//     cold rather than serving stale values;
//   - the full GPU configuration, via its canonical file serialization;
//   - the trace content hash — content, not pointer or name, so a
//     re-parsed or re-generated copy of the same workload still hits;
//   - the options' Identity: every result-affecting field as
//     the assembly will run it, so spellings that run identically ("default
//     by zero" and "default spelled out", an epoch length on a Memory job)
//     share an entry, while each relaxed epoch length and each effective
//     sampling triple has its own. What Identity leaves out and why is
//     documented there; Scheduler must be unset — the service never sets
//     it, and a custom scheduler would change results without changing
//     the key.
//
// Every warm resubmit derives its jobs' keys again, so the derivation is
// memoized on exactly its inputs that vary within a process: the trace's
// content hash, the whole configuration value (not its name, which an
// explored variant of a preset keeps) and the options' Identity.
func jobKey(app *trace.App, gpu config.GPU, opts sim.Options) string {
	return keyMemo.Get(keyInputs{trace.ContentHash(app), gpu, opts.Identity()}, deriveKey)
}

// keyInputs is the memo key of jobKey: everything the derivation reads that
// is not a process constant.
type keyInputs struct {
	trace    [32]byte
	gpu      config.GPU
	identity string
}

// keyMemo holds the last keyMemoEntries derived keys, each weighing 1: a
// sweep over every app, preset and kind is 240 of them.
const keyMemoEntries = 4096

var keyMemo = memo.New[keyInputs](keyMemoEntries, func(string) int { return 1 })

// deriveKey is jobKey's computation, on the memo's key.
func deriveKey(in keyInputs) string {
	h := sha256.New()
	io.WriteString(h, keySchema+"\n")
	io.WriteString(h, regress.CanonicalVersion+"\n")
	io.WriteString(h, codeVersion+"\n")
	h.Write(config.Marshal(in.gpu))
	h.Write(in.trace[:])
	io.WriteString(h, in.identity+"\n")
	return hex.EncodeToString(h.Sum(nil))
}

// codeVersion identifies the running build: the VCS revision (plus a
// dirty marker) when available, else a fixed placeholder. Builds without
// VCS stamping — go test binaries, plain `go run` — share one cold
// namespace, which only ever costs recomputation, never staleness within
// a single test process. It is read when the package is initialized, so no
// caller waits on it or finds it half set.
var codeVersion = readCodeVersion()

func readCodeVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unversioned"
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unversioned"
	}
	return rev + dirty
}
