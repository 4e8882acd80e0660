package service

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime/debug"
	"sync"

	"swiftsim/internal/config"
	"swiftsim/internal/regress"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
)

// keySchema versions the key derivation itself; bump it when the fields
// folded into the key change. Schema 4 hashes sim.Options.Identity in
// place of a field list of its own.
const keySchema = "swiftsim-service-key 4"

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
func jobKey(app *trace.App, gpu config.GPU, opts sim.Options) string {
	h := sha256.New()
	io.WriteString(h, keySchema+"\n")
	io.WriteString(h, regress.CanonicalVersion+"\n")
	io.WriteString(h, codeVersion()+"\n")
	h.Write(config.Marshal(gpu))
	th := trace.ContentHash(app)
	h.Write(th[:])
	io.WriteString(h, opts.Identity()+"\n")
	return hex.EncodeToString(h.Sum(nil))
}

var (
	codeVersionOnce sync.Once
	codeVersionVal  string
)

// codeVersion identifies the running build: the VCS revision (plus a
// dirty marker) when available, else a fixed placeholder. Builds without
// VCS stamping — go test binaries, plain `go run` — share one cold
// namespace, which only ever costs recomputation, never staleness within
// a single test process.
func codeVersion() string {
	codeVersionOnce.Do(func() {
		codeVersionVal = "unversioned"
		info, ok := debug.ReadBuildInfo()
		if !ok {
			return
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
		if rev != "" {
			codeVersionVal = rev + dirty
		}
	})
	return codeVersionVal
}
