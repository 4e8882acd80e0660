package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/snap"
)

// refPolicy and refTags are the tag access as it was before access fused
// it: lookup, then install on a miss, then markDirty on a write, each its
// own scan of the set, with the replacement policy behind an interface. The
// reference keeps its lines and clock in a *tags so the two snapshot alike;
// its policy state lives in pol.
type refPolicy interface {
	touch(l *line, clock uint64)
	filled(l *line, clock uint64)
	victim(set []line) int
}

type refLRU struct{}

func (refLRU) touch(l *line, clock uint64)  { l.lastUse = clock }
func (refLRU) filled(l *line, clock uint64) { l.lastUse = clock; l.fillSeq = clock }
func (refLRU) victim(set []line) int {
	best, bestUse := 0, set[0].lastUse
	for i := 1; i < len(set); i++ {
		if set[i].lastUse < bestUse {
			best, bestUse = i, set[i].lastUse
		}
	}
	return best
}

type refFIFO struct{}

func (refFIFO) touch(*line, uint64)          {}
func (refFIFO) filled(l *line, clock uint64) { l.fillSeq = clock }
func (refFIFO) victim(set []line) int {
	best, bestSeq := 0, set[0].fillSeq
	for i := 1; i < len(set); i++ {
		if set[i].fillSeq < bestSeq {
			best, bestSeq = i, set[i].fillSeq
		}
	}
	return best
}

type refRandom struct{ state uint64 }

func (*refRandom) touch(*line, uint64)  {}
func (*refRandom) filled(*line, uint64) {}
func (p *refRandom) victim(set []line) int {
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	return int(p.state % uint64(len(set)))
}

type refTags struct {
	t   *tags
	pol refPolicy
}

func newRefTags(cfg config.Cache) *refTags {
	r := &refTags{t: newTags(cfg)}
	switch cfg.Replacement {
	case config.FIFO:
		r.pol = refFIFO{}
	case config.Random:
		r.pol = &refRandom{state: 0x9e3779b97f4a7c15}
	default:
		r.pol = refLRU{}
	}
	return r
}

func (r *refTags) find(addr uint64) *line {
	la := r.t.lineAddr(addr)
	set := r.t.set(la)
	for i := range set {
		if set[i].sectorValid != 0 && set[i].lineAddr == la {
			return &set[i]
		}
	}
	return nil
}

func (r *refTags) lookup(addr uint64) (*line, bool) {
	l := r.find(addr)
	if l == nil {
		return nil, false
	}
	r.t.clock++
	r.pol.touch(l, r.t.clock)
	return l, l.sectorValid&(1<<r.t.sector(addr)) != 0
}

func (r *refTags) install(addr uint64) evicted {
	la := r.t.lineAddr(addr)
	set := r.t.set(la)
	r.t.clock++
	for i := range set {
		if set[i].sectorValid != 0 && set[i].lineAddr == la {
			set[i].sectorValid |= 1 << r.t.sector(addr)
			r.pol.touch(&set[i], r.t.clock)
			return evicted{}
		}
	}
	way := -1
	for i := range set {
		if set[i].sectorValid == 0 {
			way = i
			break
		}
	}
	var ev evicted
	if way < 0 {
		way = r.pol.victim(set)
		v := &set[way]
		ev = evicted{lineAddr: v.lineAddr, dirtySector: v.sectorDirty, wasValid: true}
	}
	set[way] = line{lineAddr: la, sectorValid: 1 << r.t.sector(addr)}
	r.pol.filled(&set[way], r.t.clock)
	return ev
}

func (r *refTags) markDirty(addr uint64) {
	if l := r.find(addr); l != nil {
		l.sectorDirty |= 1 << r.t.sector(addr)
	}
}

func (r *refTags) access(addr uint64, write bool) (bool, evicted) {
	_, hit := r.lookup(addr)
	var ev evicted
	if !hit {
		ev = r.install(addr)
	}
	if write {
		r.markDirty(addr)
	}
	return hit, ev
}

// rng returns the reference's Random stream state, or the seed the tags
// keep under the other policies.
func (r *refTags) rng() uint64 {
	if p, ok := r.pol.(*refRandom); ok {
		return p.state
	}
	return rngSeed
}

func snapBytes(t *tags) []byte {
	b, _ := snap.Save(t.snap)
	return b
}

var policies = []config.Replacement{config.LRU, config.FIFO, config.Random}

// TestTagAccessMatchesReference drives the fused access, and the timed
// path's lookup and install, against the reference on random streams under
// every policy, on geometries that include a set count that is not a power
// of two (as every preset's aggregate L2 is): after each operation the
// result, the clock, the Random stream and the snapshot bytes must agree.
func TestTagAccessMatchesReference(t *testing.T) {
	geoms := []config.Cache{
		{Sets: 12, Ways: 4, LineBytes: 128, SectorBytes: 32},
		{Sets: 4, Ways: 2, LineBytes: 128, SectorBytes: 32},
		{Sets: 8, Ways: 8, LineBytes: 64, SectorBytes: 16},
	}
	for _, rep := range policies {
		for _, g := range geoms {
			g.Replacement = rep
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				got, want := newTags(g), newRefTags(g)
				// Three times the capacity: hits, sector misses, fills
				// into free ways and evictions all occur.
				span := 3 * g.Sets * g.Ways * g.LineBytes
				for op := 0; op < 1500; op++ {
					addr := uint64(rng.Intn(span))
					var ok bool
					switch kind := rng.Intn(6); kind {
					case 0: // the timed read path
						gl, gh := got.lookup(addr)
						wl, wh := want.lookup(addr)
						ok = gh == wh && (gl == nil) == (wl == nil)
					case 1: // the timed fill path
						ok = got.install(addr) == want.install(addr)
					default:
						write := kind == 2
						gh, gev := got.access(addr, write)
						wh, wev := want.access(addr, write)
						ok = gh == wh && gev == wev
					}
					if !ok || got.clock != want.t.clock || got.rng != want.rng() {
						t.Fatalf("%v %d×%d seed %d op %d (addr %#x): results, clock %d/%d or stream %#x/%#x diverged",
							rep, g.Sets, g.Ways, seed, op, addr, got.clock, want.t.clock, got.rng, want.rng())
					}
					want.t.rng = want.rng()
					if !bytes.Equal(snapBytes(got), snapBytes(want.t)) {
						t.Fatalf("%v %d×%d seed %d op %d (addr %#x): snapshot bytes diverged", rep, g.Sets, g.Ways, seed, op, addr)
					}
				}
			}
		}
	}
}

// TestFunctionalReset: a reset cache is the cache NewFunctional builds —
// statistics, tags, replacement clock and Random stream — whatever geometry
// it had before, so a stream after Reset sees what it would on a fresh
// cache.
func TestFunctionalReset(t *testing.T) {
	drive := func(f *Functional, seed int64) []bool {
		rng := rand.New(rand.NewSource(seed))
		hits := make([]bool, 400)
		for i := range hits {
			hits[i] = f.Access(uint64(rng.Intn(64))*32, rng.Intn(3) == 0)
		}
		return hits
	}
	for _, rep := range policies {
		cfg := smallCache()
		cfg.Replacement = rep
		larger, smaller := cfg, cfg
		larger.Sets, smaller.Sets = 16, 2
		for _, before := range []config.Cache{cfg, larger, smaller} {
			f := NewFunctional(before)
			drive(f, 1)
			f.Reset(cfg)
			if f.Accesses != 0 || f.Hits != 0 {
				t.Fatalf("%v: Reset left statistics %d/%d", rep, f.Accesses, f.Hits)
			}
			fresh := NewFunctional(cfg)
			got, want := drive(f, 2), drive(fresh, 2)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v from %d sets: access %d after Reset hit=%v, on a fresh cache %v", rep, before.Sets, i, got[i], want[i])
				}
			}
			if !bytes.Equal(snapBytes(f.t), snapBytes(fresh.t)) || f.Hits != fresh.Hits {
				t.Errorf("%v from %d sets: state after Reset and a stream differs from a fresh cache's", rep, before.Sets)
			}
		}
	}
}

// TestAggregateL2ReachableSets pins a modelling finding (DESIGN.md §12.3)
// without fixing it: the profiler and the L2Hybrid backend give each
// preset's aggregate L2 Sets × MemPartitions sets, not a power of two, and
// setIndex masks with Sets-1, so only the sets whose index is a bit-subset
// of Sets-1 are reachable: 2, 2 and 4 MiB of the 5.5, 3 and 6 MiB built.
func TestAggregateL2ReachableSets(t *testing.T) {
	for _, c := range []struct {
		gpu             config.GPU
		sets, reachable int
	}{
		{config.RTX2080Ti(), 11264, 4096},
		{config.RTX3060(), 6144, 4096},
		{config.RTX3090(), 12288, 8192},
	} {
		cfg := c.gpu.L2
		cfg.Sets *= c.gpu.MemPartitions
		tg := newTags(cfg)
		seen := make(map[int]bool)
		for la := uint64(0); la < 2*uint64(cfg.Sets); la++ {
			seen[tg.setIndex(la)] = true
		}
		if cfg.Sets != c.sets || len(seen) != c.reachable {
			t.Errorf("%s: %d of %d aggregate L2 sets reachable, pinned %d of %d",
				c.gpu.Name, len(seen), cfg.Sets, c.reachable, c.sets)
		}
		t.Logf("%s: %d of %d sets reachable, %.1f of %.1f MiB modelled", c.gpu.Name, len(seen), cfg.Sets,
			float64(len(seen)*cfg.Ways*cfg.LineBytes)/(1<<20), float64(cfg.SizeBytes())/(1<<20))
	}
}
