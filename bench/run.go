package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// runOptions are one run's settings, the same for every workload in it.
type runOptions struct {
	Seed uint64
	// Seconds is how long a workload's passes may take together; Passes,
	// when positive, fixes their number and Seconds is ignored.
	Seconds float64
	Passes  int
	// Traced adds the per-layer ledger: traced passes after the untraced
	// ones, the layer rigs, and the reference timings the derived metrics
	// need. End-to-end metrics always come from the untraced passes.
	Traced bool
	Scale  float64
	OutDir string
	Exec   executor
	// Rigs returns the layer rigs' metrics. They do not depend on the
	// workload, so one invocation measures them once (see withRigs).
	Rigs func() (map[string]float64, error)
}

// withRigs sets o.Rigs to run the rigs on first use and remember them.
func (o runOptions) withRigs() runOptions {
	o.Rigs = sync.OnceValues(func() (map[string]float64, error) {
		return o.Exec.rigs(rigConfig{Seed: o.Seed, OutDir: o.OutDir})
	})
	return o
}

// minPasses is the fewest untraced passes a median is taken over.
const minPasses = 3

// setupSamples is how many set-up-only children follow the passes. Set-up
// takes 4 to 45 ms, so the passes' own three to six samples of it left
// setup_s the least steady metric; these cost under half a second.
const setupSamples = 10

// stat summarises one metric over a workload's passes.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarise(values []float64) stat {
	if len(values) == 0 {
		return stat{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return stat{Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// quantile interpolates linearly in a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// workloadResult is everything one run learned about one workload.
type workloadResult struct {
	Name   string
	Seed   uint64
	Scale  float64
	Passes int
	Cores  int
	Procs  int
	// HostFactor is what every host-time metric of the run was divided
	// by (calib.go).
	HostFactor float64
	// EndToEnd holds every end-to-end metric; Layers the per-layer ledger
	// of a traced run.
	EndToEnd map[string]stat
	Layers   map[string]float64
	// Ops counts simulation jobs and HTTP sweep requests over all passes;
	// OpsFailed the ones that failed any correctness check.
	Ops       int
	OpsFailed int
	Failures  []string
	// ResultDigest is a SHA-256 over the canonical results of the first
	// pass. It is reported, not gated: a speed-only change can show it
	// unchanged, a modelling change is expected to move it.
	ResultDigest string
	spans        []span
}

// measure runs one workload: the reference child, the passes, and for a
// traced run the traced passes and the rigs; then checks and aggregates.
func measure(name string, o runOptions) (*workloadResult, error) {
	p, err := newPlan(name, o.Seed, o.Scale)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Name: name, Seed: o.Seed, Scale: p.Scale}

	ref, err := o.Exec.ref(refConfig{Plan: p, HW: !o.Traced})
	if err != nil {
		return nil, fmt.Errorf("%s: reference: %w", name, err)
	}

	run := &passRunner{exec: o.Exec}
	budget := time.Duration(o.Seconds * float64(time.Second))
	if o.Traced {
		budget /= 2
	}
	// runPasses runs passes numbered from first: exactly fixed of them, or
	// when fixed is zero at least `least` and then until the budget is spent.
	runPasses := func(traced bool, first, fixed, least int) ([]*passRecord, error) {
		var recs []*passRecord
		start := time.Now()
		for i := 0; ; i++ {
			if fixed > 0 {
				if i >= fixed {
					break
				}
			} else if i >= least && time.Since(start) >= budget {
				break
			}
			rec, err := run.pass(passConfig{Plan: p, Pass: first + i, Traced: traced, OutDir: o.OutDir})
			if err != nil {
				return nil, fmt.Errorf("%s: pass %d: %w", name, first+i, err)
			}
			recs = append(recs, rec)
		}
		return recs, nil
	}
	passes, err := runPasses(false, 0, o.Passes, minPasses)
	if err != nil {
		return nil, err
	}
	setups, err := run.setups(passConfig{Plan: p, OutDir: o.OutDir}, setupSamples)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up sample: %w", name, err)
	}
	var traced, base []*passRecord
	var rigs map[string]float64
	if o.Traced {
		fixed := 0
		if o.Passes > 0 {
			fixed = 1 // -passes n means n untraced passes and one traced
		}
		if traced, err = runPasses(true, len(passes), fixed, 1); err != nil {
			return nil, err
		}
		if rigs, err = o.Rigs(); err != nil {
			return nil, fmt.Errorf("%s: rigs: %w", name, err)
		}
		if base, err = basePasses(name, o, run); err != nil {
			return nil, err
		}
	}

	// One host factor for the whole run: the median of its readings.
	res.HostFactor = median(run.readings)
	for _, recs := range [][]*passRecord{passes, setups, traced, base} {
		for _, rec := range recs {
			rec.HostFactor = res.HostFactor
		}
	}
	res.Passes = len(passes)
	res.Cores, res.Procs = passes[0].Cores, passes[0].Procs
	check(res, p, passes, ref)
	res.EndToEnd = endToEndStats(passes, setups, ref)
	res.ResultDigest = resultDigest(passes[0])
	if o.Traced {
		for _, t := range traced {
			res.Ops += t.Ops
			countFailures(res, t.Failures)
			res.spans = append(res.spans, t.Spans...)
		}
		res.Layers = layerMetrics(passes, traced, base, ref, rigs)
	}
	if res.OpsFailed > res.Ops {
		res.OpsFailed = res.Ops
	}
	return res, nil
}

// passRunner runs a workload's children one after another and reads the
// host's speed (calib.go) before the first pass and after every one, so
// the readings are spread over the whole run.
type passRunner struct {
	exec     executor
	readings []float64
}

func (r *passRunner) read() error {
	f, err := r.exec.hostReading()
	r.readings = append(r.readings, f)
	return err
}

func (r *passRunner) pass(cfg passConfig) (*passRecord, error) {
	if len(r.readings) == 0 {
		if err := r.read(); err != nil {
			return nil, err
		}
	}
	rec, err := r.exec.pass(cfg)
	if err != nil {
		return nil, err
	}
	return rec, r.read()
}

// setups runs n children that stop where the timed section would start,
// and takes one reading after them.
func (r *passRunner) setups(cfg passConfig, n int) ([]*passRecord, error) {
	cfg.SetupOnly = true
	recs := make([]*passRecord, n)
	for i := range recs {
		var err error
		if recs[i], err = r.exec.pass(cfg); err != nil {
			return nil, err
		}
	}
	return recs, r.read()
}

// baseOf names the workload a traced run measures beside its own, as the
// base of a ratio: the cycle-accurate simulator for the hybrid ones
// (sim.speedup_vs_detailed, the paper's ratio) and the local execution
// plane for the remote one (service.remote_overhead_pct).
var baseOf = map[string]string{
	"basic_serial":   "detailed_serial",
	"basic_sharded":  "detailed_serial",
	"memory_corpus":  "detailed_serial",
	"service_remote": "service_local",
}

// basePasses runs two untraced passes of name's base workload, without
// their warm sections.
func basePasses(name string, o runOptions, run *passRunner) ([]*passRecord, error) {
	baseName, ok := baseOf[name]
	if !ok {
		return nil, nil
	}
	bp, err := newPlan(baseName, o.Seed, o.Scale)
	if err != nil {
		return nil, err
	}
	bp.Warm, bp.WarmResubmits = nil, 0
	var recs []*passRecord
	for i := 0; i < 2; i++ {
		rec, err := run.pass(passConfig{Plan: bp, Pass: i, OutDir: o.OutDir})
		if err != nil {
			return nil, fmt.Errorf("%s: base pass of %s: %w", name, baseName, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func countFailures(res *workloadResult, failures []string) {
	res.OpsFailed += len(failures)
	res.Failures = append(res.Failures, failures...)
}

// check applies the correctness checks that need more than one pass or
// the reference child, and totals operations and failures.
func check(res *workloadResult, p plan, passes []*passRecord, ref *refRecord) {
	for _, rec := range passes {
		res.Ops += rec.Ops
		countFailures(res, rec.Failures)
	}
	first, last := passes[0], passes[len(passes)-1]
	want := len(p.Jobs)
	if p.service() {
		want = 2 * len(p.Apps)
	}
	for _, rec := range passes {
		if len(rec.Jobs) != want && len(rec.Failures) == 0 {
			countFailures(res, []string{fmt.Sprintf("pass %d returned %d results, want %d", rec.Pass, len(rec.Jobs), want)})
		}
	}

	// Last-pass canonical bytes against first-pass bytes.
	firstDigest := map[string]string{}
	for _, j := range first.Jobs {
		firstDigest[j.Key] = j.Digest
	}
	if last != first {
		for _, j := range last.Jobs {
			if d, ok := firstDigest[j.Key]; ok && d != j.Digest {
				countFailures(res, []string{fmt.Sprintf("%s: pass %d canonical bytes differ from pass %d", j.Key, last.Pass, first.Pass)})
			}
		}
	}

	// Against the independent path: service results must equal a direct
	// sim.Run, exact-mode sharded results the serial engine's.
	ends := []*passRecord{first}
	if last != first {
		ends = append(ends, last)
	}
	for _, rec := range ends {
		for _, j := range rec.Jobs {
			key := j.Key
			if strings.HasSuffix(key, "/t2/k8") {
				continue // relaxed epochs shift results by design
			}
			key = strings.TrimSuffix(key, "/t2/k1")
			if d, ok := ref.Digests[key]; ok && d != j.Digest {
				countFailures(res, []string{fmt.Sprintf("%s: pass %d canonical bytes differ from the direct serial run", j.Key, rec.Pass)})
			}
		}
	}
}

// cell is the "app/gpu" prefix of a job key.
func cell(key string) string {
	parts := strings.SplitN(key, "/", 3)
	if len(parts) < 2 {
		return key
	}
	return parts[0] + "/" + parts[1]
}

func endToEndStats(passes, setups []*passRecord, ref *refRecord) map[string]stat {
	series := map[string][]float64{}
	for _, r := range setups {
		series["setup_s"] = append(series["setup_s"], r.seconds(r.SetupNS))
	}
	for _, r := range passes {
		if r.Insts == 0 || r.WallNS == 0 {
			continue // a pass that lost every job has no rate to report
		}
		// Every duration is divided by the run's host factor (calib.go).
		minst := float64(r.Insts) / 1e6
		series["setup_s"] = append(series["setup_s"], r.seconds(r.SetupNS))
		series["sim_kips"] = append(series["sim_kips"], float64(r.Insts)/1e3/r.seconds(r.WallNS))
		series["cpu_s_per_minst"] = append(series["cpu_s_per_minst"], r.seconds(r.CPUNS)/minst)
		series["allocs_per_kinst"] = append(series["allocs_per_kinst"], float64(r.Mallocs)/(float64(r.Insts)/1e3))
		series["peak_rss_mb"] = append(series["peak_rss_mb"], float64(r.MaxRSSKB)/1024)
		series["warm_ms"] = append(series["warm_ms"], r.WarmMS/r.HostFactor)
		if len(ref.HWCycles) > 0 {
			series["cycle_err_pct"] = append(series["cycle_err_pct"], cycleErrPct(r, ref))
		}
	}
	out := map[string]stat{}
	for _, m := range endToEnd {
		out[m.Name] = summarise(series[m.Name])
	}
	return out
}

// cycleErrPct is the mean over a pass's jobs of |sim - hw| / hw, in
// percent, against the golden model's cycles for the job's cell.
func cycleErrPct(r *passRecord, ref *refRecord) float64 {
	var sum float64
	n := 0
	for _, j := range r.Jobs {
		hw, ok := ref.HWCycles[cell(j.Key)]
		if !ok || hw == 0 {
			continue
		}
		sum += math.Abs(float64(j.Cycles)-float64(hw)) / float64(hw) * 100
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func resultDigest(r *passRecord) string {
	lines := make([]string, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		lines = append(lines, j.Key+" "+j.Digest)
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

func median(values []float64) float64 { return summarise(values).Median }

// layerMetrics builds the per-layer ledger of a traced run.
func layerMetrics(passes, traced, base []*passRecord, ref *refRecord, rigs map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer() {
		out[m.Name] = 0
	}
	for name, v := range rigs {
		out[name] = v
	}

	var wall, tracedWall []float64
	for _, r := range passes {
		wall = append(wall, r.seconds(r.WallNS)*1e9)
	}
	for _, r := range traced {
		tracedWall = append(tracedWall, r.seconds(r.WallNS)*1e9)
	}
	if w := median(wall); w > 0 && len(tracedWall) > 0 {
		out["trace_overhead_pct"] = (median(tracedWall)/w - 1) * 100
	}

	// Simulated-machine counts, from the first pass: they repeat exactly.
	first := passes[0]
	sum := map[string]uint64{}
	var cycles, ticked, skipped, insts uint64
	for _, j := range first.Jobs {
		cycles += j.Cycles
		ticked += j.Ticked
		skipped += j.Skipped
		insts += j.Insts
		for k, v := range j.Metrics {
			sum[k] += v
		}
	}
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	pct := func(num, den uint64) float64 { return ratio(num, den) * 100 }
	out["sim.cycles"] = float64(cycles)
	out["engine.ticked_cycles"] = float64(ticked)
	out["engine.skipped_cycles"] = float64(skipped)
	out["engine.skip_ratio"] = ratio(skipped, ticked+skipped)
	out["smcore.issued"] = float64(sum["sm.issued"])
	out["smcore.stall_cycles"] = float64(sum["sm.stall"])
	out["smcore.ipc"] = ratio(insts, cycles)
	out["cache.l1_accesses"] = float64(sum["l1.hit"] + sum["l1.miss"])
	out["cache.l1_hit_pct"] = pct(sum["l1.hit"], sum["l1.hit"]+sum["l1.miss"])
	out["cache.l2_accesses"] = float64(sum["l2.hit"] + sum["l2.miss"])
	out["cache.l2_hit_pct"] = pct(sum["l2.hit"], sum["l2.hit"]+sum["l2.miss"])
	out["cache.mshr_stall"] = float64(sum["l1.mshr_stall"] + sum["l2.mshr_stall"])
	out["noc.requests"] = float64(sum["noc.request"])
	out["noc.stall"] = float64(sum["noc.stall"])
	out["dram.requests"] = float64(sum["dram.read"] + sum["dram.write"])
	out["dram.row_hit_pct"] = pct(sum["dram.row_hit"], sum["dram.row_hit"]+sum["dram.row_miss"])
	for name, v := range first.Stats {
		out[name] = float64(v)
	}
	if ticked > 0 {
		out["sim.host_ns_per_ticked_cycle"] = median(wall) / float64(ticked)
	}

	// Ratios against the base workload's passes and the reference child's
	// direct runs. Result.Wall is only known for jobs a pass ran itself,
	// so the service workloads have no per-job ratio.
	detailed := map[string]float64{} // app -> sim.Detailed wall on the 2080 Ti
	var baseWall []float64
	walls := map[string][]float64{}
	for _, b := range base {
		baseWall = append(baseWall, b.seconds(b.WallNS)*1e9)
		for _, j := range b.Jobs {
			if app, ok := strings.CutSuffix(j.Key, "/"+theGPU+"/Detailed"); ok {
				walls[app] = append(walls[app], b.seconds(j.WallNS)*1e9)
			}
		}
	}
	for app, w := range walls {
		detailed[app] = median(w)
	}
	var profShare, speedup, slowdown []float64
	for _, r := range passes {
		var jobNS, profNS, shardNS, serialNS int64
		var cellNS, detailedNS float64
		for _, j := range r.Jobs {
			jobNS += j.WallNS
			profNS += j.ProfNS
			app := strings.SplitN(j.Key, "/", 2)[0]
			exact := !strings.HasSuffix(j.Key, "/k8")
			if d, ok := detailed[app]; ok && exact && strings.HasPrefix(j.Key, app+"/"+theGPU+"/") {
				cellNS += r.seconds(j.WallNS) * 1e9
				detailedNS += d
			}
			if s, ok := ref.SerialWallNS[app]; ok && strings.HasSuffix(j.Key, "/t2/k1") {
				shardNS += j.WallNS
				serialNS += s
			}
		}
		if jobNS > 0 {
			profShare = append(profShare, float64(profNS)/float64(jobNS)*100)
		}
		if cellNS > 0 {
			speedup = append(speedup, detailedNS/cellNS)
		}
		if serialNS > 0 {
			slowdown = append(slowdown, float64(shardNS)/float64(serialNS))
		}
	}
	out["reuse.profile_share_pct"] = median(profShare)
	out["sim.speedup_vs_detailed"] = median(speedup)
	out["engine.shard_slowdown"] = median(slowdown)
	if first.Workload == "detailed_serial" {
		out["sim.speedup_vs_detailed"] = 1 // its own base
	}
	if first.Workload == "service_remote" && median(baseWall) > 0 {
		out["service.remote_overhead_pct"] = (median(wall)/median(baseWall) - 1) * 100
	}

	// Self-time shares from the CPU profiles of the traced passes.
	var total int64
	byCat := map[string]int64{}
	for _, r := range traced {
		for cat, ns := range r.ProfileNS {
			byCat[cat] += ns
			total += ns
		}
	}
	if total > 0 {
		for _, cat := range hostCategories {
			out["host."+cat+"_pct"] = float64(byCat[cat]) / float64(total) * 100
		}
	}
	return out
}

// writeSpans writes the spans of a traced run to out/trace.json.
func writeSpans(outDir string, results []*workloadResult) error {
	var all []span
	for _, r := range results {
		all = append(all, r.spans...)
	}
	if len(all) == 0 {
		return nil
	}
	f, err := os.Create(outDir + "/trace.json")
	if err != nil {
		return err
	}
	if err := encodeJSON(f, all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
