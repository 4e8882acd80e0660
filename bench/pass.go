package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/regress"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// passConfig is one pass of one workload. A pass normally runs in a child
// process of its own (see exec.go) so the simulator's in-process memos are
// as cold as a CLI user finds them; the smoke test runs it in-process.
type passConfig struct {
	Plan   plan
	Pass   int
	Traced bool
	// SetupOnly stops the pass where its timed section would start: one
	// more sample of setup_s, which a full pass yields only once.
	SetupOnly bool
	SpawnNS   int64  // unix nanoseconds at which the parent started the pass
	OutDir    string // scratch and profile directory

	// Corrupt, when set, may alter a job's canonical bytes before they
	// are digested. Only the smoke test sets it, to prove the digest
	// comparison counts a changed byte as a failed op.
	Corrupt func(key string, canonical []byte) []byte `json:"-"`
}

// jobResult is what a pass keeps of one finished job: the digest of its
// canonical rendering and the simulated statistics parsed back out of it.
type jobResult struct {
	Key     string            `json:"key"`
	Digest  string            `json:"digest"`
	Cycles  uint64            `json:"cycles"`
	Insts   uint64            `json:"insts"`
	Ticked  uint64            `json:"ticked"`
	Skipped uint64            `json:"skipped"`
	WallNS  int64             `json:"wall_ns,omitempty"`
	ProfNS  int64             `json:"prof_ns,omitempty"`
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// passRecord is a pass child's whole output, one JSON line.
type passRecord struct {
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	// SetupNS runs from the parent's spawn to the start of the timed
	// section; WallNS, CPUNS and Mallocs cover the timed section only.
	SetupNS  int64   `json:"setup_ns"`
	WallNS   int64   `json:"wall_ns"`
	CPUNS    int64   `json:"cpu_ns"`
	Mallocs  uint64  `json:"mallocs"`
	Insts    uint64  `json:"insts"`
	WarmMS   float64 `json:"warm_ms"`
	MaxRSSKB int64   `json:"max_rss_kb"`
	// HostFactor is the run's host factor (calib.go), stamped by the
	// parent once the run's readings are in.
	HostFactor float64 `json:"host_factor"`
	// Ops counts simulation jobs and HTTP sweep requests; Failures names
	// the ones that failed.
	Ops      int               `json:"ops"`
	Failures []string          `json:"failures,omitempty"`
	Jobs     []jobResult       `json:"jobs"`
	Stats    map[string]uint64 `json:"stats,omitempty"` // service counters
	// Traced passes only.
	Spans     []span           `json:"spans,omitempty"`
	ProfileNS map[string]int64 `json:"profile_ns,omitempty"`
	Cores     int              `json:"host_cores"`
	Procs     int              `json:"gomaxprocs"`
}

// seconds converts a duration of this pass to seconds over the run's host
// factor, the unit every host-time metric is reported in.
func (r *passRecord) seconds(ns int64) float64 { return float64(ns) / 1e9 / r.HostFactor }

func (r *passRecord) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// meter brackets a timed section: wall time, process CPU time and heap
// allocations.
type meter struct {
	t0      time.Time
	cpu0    int64
	mallocs uint64
}

func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss) // kilobytes on Linux
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{t0: time.Now(), cpu0: cpuNS(), mallocs: ms.Mallocs}
}

func (m meter) stop(rec *passRecord) {
	rec.WallNS = time.Since(m.t0).Nanoseconds()
	rec.CPUNS = cpuNS() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec.Mallocs = ms.Mallocs - m.mallocs
}

// runPass executes one pass and returns its record. Failed operations are
// counted in the record; the error return is for a pass that could not be
// set up at all.
func runPass(cfg passConfig) (*passRecord, error) {
	rec := &passRecord{
		Workload: cfg.Plan.Workload, Pass: cfg.Pass,
		Cores: runtime.NumCPU(), Procs: runtime.GOMAXPROCS(0),
	}
	var tr *recorder
	if cfg.Traced {
		tr = newRecorder(cfg.Plan.Workload, cfg.Pass)
	}
	var err error
	if cfg.Plan.service() {
		err = runServicePass(cfg, rec, tr)
	} else {
		err = runSimPass(cfg, rec, tr)
	}
	if err != nil {
		return nil, err
	}
	rec.MaxRSSKB = maxRSSKB()
	if tr != nil {
		rec.Spans = tr.spans
	}
	return rec, nil
}

// profiled runs the timed section under the CPU profiler when the pass is
// traced, and reduces the profile to per-layer CPU time afterwards.
func profiled(cfg passConfig, rec *passRecord, timed func()) error {
	if !cfg.Traced {
		timed()
		return nil
	}
	path := fmt.Sprintf("%s/%s.pass%d.cpu.pprof", cfg.OutDir, cfg.Plan.Workload, cfg.Pass)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	timed()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rec.ProfileNS, err = reduceProfile(data)
	return err
}

func runSimPass(cfg passConfig, rec *passRecord, tr *recorder) error {
	p := cfg.Plan
	endSetup := tr.begin("setup", "")
	apps := map[string]*trace.App{}
	gpus := map[string]config.GPU{}
	for _, j := range p.Jobs {
		if _, ok := apps[j.App]; !ok {
			end := tr.begin("workload.Generate", j.App)
			app, err := workload.Generate(j.App, p.Scale)
			end()
			if err != nil {
				return err
			}
			apps[j.App] = app
		}
		if _, ok := gpus[j.GPU]; !ok {
			g, ok := config.Preset(j.GPU)
			if !ok {
				return fmt.Errorf("unknown GPU preset %q", j.GPU)
			}
			gpus[j.GPU] = g
		}
	}
	results := make([]*sim.Result, len(p.Jobs))
	endSetup()

	rec.SetupNS = time.Now().UnixNano() - cfg.SpawnNS
	if cfg.SetupOnly {
		return nil
	}
	err := profiled(cfg, rec, func() {
		endTimed := tr.begin("timed", "")
		m := startMeter()
		for i, j := range p.Jobs {
			end := tr.begin("sim.Run", j.Key())
			res, err := sim.Run(apps[j.App], gpus[j.GPU], j.options())
			end()
			rec.Ops++
			if err != nil {
				rec.fail("%s: %v", j.Key(), err)
				continue
			}
			results[i] = res
			rec.Insts += res.Instructions
		}
		m.stop(rec)
		endTimed()
	})
	if err != nil {
		return err
	}

	// Warm re-runs: the same design points again with the in-process
	// memos (traces, content hashes, hit-rate profiles) filled.
	endWarm := tr.begin("warm", "")
	t0 := time.Now()
	for _, i := range p.Warm {
		j := p.Jobs[i]
		end := tr.begin("sim.Run", j.Key())
		res, err := sim.Run(apps[j.App], gpus[j.GPU], j.options())
		end()
		rec.Ops++
		switch {
		case err != nil:
			rec.fail("warm %s: %v", j.Key(), err)
		case results[i] != nil && !bytes.Equal(regress.Canonical(res), regress.Canonical(results[i])):
			rec.fail("warm %s: canonical bytes differ from the cold run", j.Key())
		}
	}
	if n := len(p.Warm); n > 0 {
		rec.WarmMS = float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(n)
	}
	endWarm()

	defer tr.begin("verify", "")()
	for i, j := range p.Jobs {
		res := results[i]
		if res == nil {
			continue
		}
		end := tr.begin("regress.Canonical", j.Key())
		canonical := regress.Canonical(res)
		end()
		if cfg.Corrupt != nil {
			canonical = cfg.Corrupt(j.Key(), canonical)
		}
		jr, err := parseCanonical(canonical)
		if err != nil {
			rec.fail("%s: %v", j.Key(), err)
			continue
		}
		jr.Key = j.Key()
		jr.WallNS = res.Wall.Nanoseconds()
		jr.ProfNS = res.ProfileWall.Nanoseconds()
		rec.Jobs = append(rec.Jobs, jr)
	}
	return nil
}

// parseCanonical reads one canonical result block (regress.Canonical, the
// same bytes the service returns) back into a jobResult. Reading the
// rendering rather than the sim.Result keeps one code path for results
// that arrive over HTTP and results of a direct sim.Run.
func parseCanonical(block []byte) (jobResult, error) {
	sum := sha256.Sum256(block)
	jr := jobResult{Digest: hex.EncodeToString(sum[:]), Metrics: map[string]uint64{}}
	sc := bufio.NewScanner(bytes.NewReader(block))
	if !sc.Scan() || sc.Text() != regress.CanonicalVersion {
		return jr, fmt.Errorf("canonical block does not start with %q", regress.CanonicalVersion)
	}
	var app, gpu, simKind string
	inMetrics := false
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if inMetrics {
			// Derived rates ("l1.miss_rate 0.99") are not integers; skip.
			if v, err := strconv.ParseUint(value, 10, 64); err == nil {
				jr.Metrics[name] = v
			}
			continue
		}
		switch name {
		case "app":
			app = value
		case "gpu":
			gpu = value
		case "sim":
			simKind = value
		case "cycles":
			jr.Cycles, _ = strconv.ParseUint(value, 10, 64)
		case "instructions":
			jr.Insts, _ = strconv.ParseUint(value, 10, 64)
		case "ticked":
			jr.Ticked, _ = strconv.ParseUint(value, 10, 64)
		case "skipped":
			jr.Skipped, _ = strconv.ParseUint(value, 10, 64)
		case "metrics":
			inMetrics = true
		}
	}
	if app == "" || jr.Cycles == 0 {
		return jr, fmt.Errorf("canonical block of %q has no app or no cycles", app)
	}
	jr.Key = app + "/" + gpu + "/" + simKind
	return jr, sc.Err()
}

// splitCanonical cuts a service result body, canonical blocks
// concatenated in job order, into its blocks.
func splitCanonical(body []byte) [][]byte {
	header := []byte(regress.CanonicalVersion + "\n")
	var blocks [][]byte
	for len(body) > 0 {
		next := bytes.Index(body[1:], header)
		if next < 0 {
			blocks = append(blocks, body)
			break
		}
		blocks = append(blocks, body[:next+1])
		body = body[next+1:]
	}
	return blocks
}
