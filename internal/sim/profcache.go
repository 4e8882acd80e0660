package sim

import (
	"swiftsim/internal/config"
	"swiftsim/internal/memo"
	"swiftsim/internal/reuse"
	"swiftsim/internal/trace"
)

// The hit-rate profile memo (DESIGN.md, "Hit-rate profiles: two phases, two
// keys"): reuse.FilterL1 is memoised under the trace's content hash and the
// L1 geometry it reads, reuse.ReplayL2 under that key plus the L2 level it
// reads, so the design points of a sweep over one trace pay each phase once
// per distinct input of that phase.

type phaseOneKey struct {
	app  [32]byte // trace.ContentHash: separately parsed copies of a trace share
	geom reuse.L1Geometry
}

type phaseTwoKey struct {
	one phaseOneKey
	l2  reuse.Level
}

// Retained-byte bounds. A phase-one result is 12 bytes per L2-bound access
// plus 8 per memory instruction (its facts): the 20 catalog apps at scale 1
// retain 12 MB between them, BFS the most at 2 MB. A profile is about 100
// bytes per static memory instruction, less than its key, so every entry is
// also charged memoEntryBytes; it is charged its facts too, which it shares
// with its phase-one result but keeps alive after that result is evicted
// (the catalog at scale 1 on the three presets: 4 MB). Sampled runs profile
// truncated apps whose content never repeats, and the bounds are what keeps
// a long-lived process from accumulating them.
const (
	phaseOneBytes  = 32 << 20
	phaseTwoBytes  = 16 << 20
	memoEntryBytes = 512 // key, entry and channel
)

// The weights: an entry, a phase-one result's bytes, and for a profile a
// map entry of Key and Rates per static instruction, with the map's own
// overhead, and its facts.
var (
	phaseOne = memo.New[phaseOneKey](phaseOneBytes, func(f *reuse.L1Filtered) int { return memoEntryBytes + f.Bytes() })
	phaseTwo = memo.New[phaseTwoKey](phaseTwoBytes, func(p *reuse.Profile) int {
		return memoEntryBytes + 100*len(p.PerPC) + p.FactsBytes()
	})
)

// FlushMemos drops what the package's memos retain: both hit-rate profile
// phases. A measurement that must pay profiling inside its wall time, as a
// cold Figure 5 pass does, calls it first. The trace digests the profiles
// are keyed on are kept on the trace, and shared like it.
func FlushMemos() {
	phaseOne.Flush()
	phaseTwo.Flush()
}

// profileCached returns the memoized hit-rate profile for (app, gpu, src),
// computing on first use whichever of its two phases no earlier call paid.
func profileCached(app *trace.App, gpu config.GPU, src HitRateSource) *reuse.Profile {
	distance := src == ReuseDistance
	one := phaseOneKey{app: trace.ContentHash(app), geom: reuse.L1GeometryOf(app, gpu, distance)}
	two := phaseTwoKey{one: one, l2: reuse.L2LevelOf(gpu, distance)}
	return phaseTwo.Get(two, func(two phaseTwoKey) *reuse.Profile {
		return phaseOne.Get(two.one, func(one phaseOneKey) *reuse.L1Filtered {
			return reuse.FilterL1(app, one.geom)
		}).ReplayL2(two.l2)
	})
}
