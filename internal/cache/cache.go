// Package cache implements Swift-Sim's sectored cache substrate: the
// cycle-accurate banked cache module with MSHRs used by the detailed
// simulators (L1 and L2 of Table II), pluggable replacement policies
// (LRU/FIFO/Random — the flexibility the paper contrasts against
// LRU-only analytical cache models), and a functional (timeless) variant
// used to extract the per-PC hit rates consumed by the analytical memory
// model of Eq. 1.
package cache

import (
	"math/bits"

	"swiftsim/internal/config"
)

// line is one cache line with per-sector valid and dirty bits. A line is
// valid when any of its sectors is: every fill validates one, and only a
// whole-array clear drops them. At 32 bytes, a set of 4 ways (an L2 slice)
// is two host cache lines and a set of 8 is four (DESIGN.md §10.2).
type line struct {
	lineAddr    uint64 // addr >> lineShift; tag+index combined
	sectorValid uint32 // non-zero exactly when the line is valid
	sectorDirty uint32
	lastUse     uint64 // LRU stamp
	fillSeq     uint64 // FIFO stamp
}

// rngSeed starts Random replacement's xorshift64 stream, so simulations are
// reproducible run to run.
const rngSeed = 0x9e3779b97f4a7c15

// tags is the sectored tag array shared by the timed and functional caches.
// The replacement policy is a switch on repl over the lines' stamps, the
// clock and, for Random, an xorshift64 stream: a set scan makes no calls.
type tags struct {
	cfg            config.Cache
	repl           config.Replacement // LRU, FIFO or Random
	lineShift      uint
	sectorShift    uint
	setMask        uint64
	sectorsPerLine int
	lines          []line // sets × ways
	clock          uint64
	rng            uint64 // Random's xorshift64 state
}

func newTags(cfg config.Cache) *tags {
	t := &tags{}
	t.reset(cfg)
	return t
}

// reset makes t the tag array newTags(cfg) builds, with the clock and the
// Random stream at their start, reusing t's line memory when it is large
// enough.
func (t *tags) reset(cfg config.Cache) {
	n := cfg.Sets * cfg.Ways
	lines := t.lines
	if cap(lines) >= n {
		lines = lines[:n]
		clear(lines)
	} else {
		lines = make([]line, n)
	}
	t.init(cfg, lines)
}

// init makes t an empty tag array of cfg over lines, which hold
// cfg.Sets×cfg.Ways zero lines.
func (t *tags) init(cfg config.Cache, lines []line) {
	repl := cfg.Replacement
	if repl != config.FIFO && repl != config.Random {
		repl = config.LRU
	}
	*t = tags{
		cfg:            cfg,
		repl:           repl,
		lineShift:      uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		sectorShift:    uint(bits.TrailingZeros(uint(cfg.SectorBytes))),
		setMask:        uint64(cfg.Sets - 1),
		sectorsPerLine: cfg.SectorsPerLine(),
		lines:          lines,
		rng:            rngSeed,
	}
}

func (t *tags) lineAddr(addr uint64) uint64 { return addr >> t.lineShift }
func (t *tags) sector(addr uint64) uint     { return uint(addr>>t.sectorShift) & uint(t.sectorsPerLine-1) }

// setIndex masks with Sets-1, so a Sets that is not a power of two reaches
// only the sets whose index is a bit-subset of Sets-1 (DESIGN.md §10.4).
func (t *tags) setIndex(lineAddr uint64) int { return int(lineAddr & t.setMask) }

func (t *tags) set(lineAddr uint64) []line {
	si, ways := t.setIndex(lineAddr), t.cfg.Ways
	return t.lines[si*ways : (si+1)*ways]
}

// touch records a hit on l.
func (t *tags) touch(l *line) {
	if t.repl == config.LRU {
		l.lastUse = t.clock
	}
}

// fill (re)allocates l to line la with sector mask valid, which is not 0.
func (t *tags) fill(l *line, la uint64, valid uint32) {
	*l = line{lineAddr: la, sectorValid: valid}
	switch t.repl {
	case config.LRU:
		l.lastUse, l.fillSeq = t.clock, t.clock
	case config.FIFO:
		l.fillSeq = t.clock
	}
}

// victim picks the way to evict from a full set: the next draw of the
// xorshift64 stream under Random, else the first way with the smallest
// stamp (last use under LRU, fill under FIFO).
func (t *tags) victim(set []line) int {
	if t.repl == config.Random {
		t.rng ^= t.rng << 13
		t.rng ^= t.rng >> 7
		t.rng ^= t.rng << 17
		return int(t.rng % uint64(len(set)))
	}
	best := 0
	for i := 1; i < len(set); i++ {
		if t.stamp(&set[i]) < t.stamp(&set[best]) {
			best = i
		}
	}
	return best
}

func (t *tags) stamp(l *line) uint64 {
	if t.repl == config.FIFO {
		return l.fillSeq
	}
	return l.lastUse
}

// lookup probes for addr's sector. It returns the line (if the line is
// present at all) and whether the requested sector is valid.
func (t *tags) lookup(addr uint64) (l *line, sectorHit bool) {
	la := t.lineAddr(addr)
	set := t.set(la)
	for i := range set {
		if set[i].lineAddr == la && set[i].sectorValid != 0 {
			t.clock++
			t.touch(&set[i])
			return &set[i], set[i].sectorValid&(1<<t.sector(addr)) != 0
		}
	}
	return nil, false
}

// evicted describes a line displaced by install or access.
type evicted struct {
	lineAddr    uint64
	dirtySector uint32 // per-sector dirty mask at eviction
	wasValid    bool
}

// install makes room for addr's line (if absent) and marks the addressed
// sector valid. It returns the displaced line, whose dirty sectors the
// caller must write back for write-back caches.
func (t *tags) install(addr uint64) evicted {
	la := t.lineAddr(addr)
	set := t.set(la)
	bit := uint32(1) << t.sector(addr)
	t.clock++
	free := -1
	for i := range set {
		l := &set[i]
		if l.sectorValid == 0 {
			if free < 0 {
				free = i
			}
		} else if l.lineAddr == la {
			l.sectorValid |= bit
			t.touch(l)
			return evicted{}
		}
	}
	_, ev := t.allocate(set, free, la, bit)
	return ev
}

// allocate fills line la into set's way free, or into the policy's victim
// when free is -1, and returns the line and what it displaced.
func (t *tags) allocate(set []line, free int, la uint64, valid uint32) (*line, evicted) {
	var ev evicted
	if free < 0 {
		free = t.victim(set)
		v := &set[free]
		ev = evicted{lineAddr: v.lineAddr, dirtySector: v.sectorDirty, wasValid: true}
	}
	t.fill(&set[free], la, valid)
	return &set[free], ev
}

// access is lookup, then install on a miss, then marking the sector dirty
// on a write, in one scan of addr's set that finds the line and the first
// invalid way; only a miss into a full set asks the policy for a victim. It
// steps the clock exactly as that sequence does: once for a hit, twice for a
// sector miss on a present line (whose sector it validates), once for an
// absent line (which it fills, returning the displaced line).
func (t *tags) access(addr uint64, write bool) (hit bool, ev evicted) {
	la := t.lineAddr(addr)
	set := t.set(la)
	bit := uint32(1) << t.sector(addr)
	free := -1
	for i := range set {
		l := &set[i]
		if l.sectorValid == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if l.lineAddr != la {
			continue
		}
		t.clock++
		hit = l.sectorValid&bit != 0
		if !hit {
			t.clock++
			l.sectorValid |= bit
		}
		t.touch(l)
		if write {
			l.sectorDirty |= bit
		}
		return hit, evicted{}
	}
	t.clock++
	l, ev := t.allocate(set, free, la, bit)
	if write {
		l.sectorDirty = bit
	}
	return false, ev
}

// invalidateAll drops every line (kernel-boundary L1 invalidation; GPU L1s
// are not coherent and are flushed between kernels). Write-through caches
// hold no dirty data, so no writebacks are needed.
func (t *tags) invalidateAll() {
	clear(t.lines)
}

// Functional is a timeless sectored cache: it reports hit/miss per access
// without modeling latency, banking or MSHRs. The analytical memory model
// uses it (or the reuse-distance profiler) to obtain the hit rates of
// Eq. 1; tests use it as a reference model for the timed cache.
type Functional struct {
	t        *tags
	Accesses uint64
	Hits     uint64
}

// NewFunctional returns a functional cache with the given geometry. The
// configuration must be valid per config.GPU.Validate rules.
func NewFunctional(cfg config.Cache) *Functional {
	return &Functional{t: newTags(cfg)}
}

// Access simulates one sector access and reports whether it hit. Misses
// install the sector (write-allocate; for write-through L1s the caller
// decides whether to count store hits).
func (f *Functional) Access(addr uint64, write bool) bool {
	f.Accesses++
	hit, _ := f.t.access(addr, write)
	if hit {
		f.Hits++
	}
	return hit
}

// Reset makes f the cache NewFunctional(cfg) returns — statistics, tags,
// replacement clock and Random stream all at their start — reusing f's tag
// memory when it is large enough, so a profiler replaying stream after
// stream clears one array rather than allocating one per replay.
func (f *Functional) Reset(cfg config.Cache) {
	f.t.reset(cfg)
	f.Accesses, f.Hits = 0, 0
}
