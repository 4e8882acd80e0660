// Package metrics implements the Metrics Gatherer of the Swift-Sim
// framework: a registry of named counters that every module writes into and
// a report generator architects read performance metrics from
// (total cycles, stall breakdowns, cache miss rates, NoC contention, ...).
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Counter is a monotonically increasing event count. Modules hold
// *Counter directly so the hot path is a single add.
type Counter struct {
	name string
	v    uint64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v++ }

// Window computes a windowed hit rate over a hit/miss counter pair: each
// DeltaPermille call reports the rate of the traffic since the previous
// call, not since the start of the run. The observability layer samples it
// into the counter timeline, where a cumulative rate would flatten every
// phase change out of view. It only reads the counters.
type Window struct {
	hits, misses       *Counter
	lastHits, lastMiss uint64
}

// NewWindow returns a Window over the given hit/miss counters.
func NewWindow(hits, misses *Counter) *Window {
	return &Window{hits: hits, misses: misses}
}

// DeltaPermille returns the hit rate of the traffic since the last call in
// per-mille (0..1000), and 1000 when the window saw no traffic (an idle
// cache is not missing).
func (w *Window) DeltaPermille() uint64 {
	h, m := w.hits.Value(), w.misses.Value()
	dh, dm := h-w.lastHits, m-w.lastMiss
	w.lastHits, w.lastMiss = h, m
	if dh+dm == 0 {
		return 1000
	}
	return 1000 * dh / (dh + dm)
}

// Gatherer collects counters from all modules of a simulator instance.
// The zero value is not usable; call New.
type Gatherer struct {
	byName map[string]*Counter
	order  []*Counter
}

// New returns an empty Gatherer.
func New() *Gatherer {
	return &Gatherer{byName: make(map[string]*Counter)}
}

// Counter returns the counter with the given name, creating it at zero on
// first use. Names are conventionally dotted paths such as
// "sm.warp_issue_stall" or "l2.miss".
func (g *Gatherer) Counter(name string) *Counter {
	if c, ok := g.byName[name]; ok {
		return c
	}
	c := &Counter{name: name}
	g.byName[name] = c
	g.order = append(g.order, c)
	return c
}

// Value returns the current value of the named counter, or 0 if it was
// never created.
func (g *Gatherer) Value(name string) uint64 {
	if c, ok := g.byName[name]; ok {
		return c.v
	}
	return 0
}

// Set forces the named counter to v (used for gauges like final cycle
// counts gathered from the Block Scheduler).
func (g *Gatherer) Set(name string, v uint64) {
	g.Counter(name).v = v
}

// FoldScaled scales every counter's growth since base (a Snapshot taken
// earlier on this gatherer) by factor: each counter with delta d since base
// gains an additional round((factor−1)×d), as if the observed activity had
// happened factor times. Counters for which exempt returns true keep their
// measured value (sampled mode exempts per-run gauges like "gpu.kernels"
// that must not scale with block count). Counters created after base was
// taken have an implicit base of zero. factor ≤ 1 and nil-base entries
// leave counters untouched; rounding is half-up per counter.
func (g *Gatherer) FoldScaled(base map[string]uint64, factor float64, exempt func(name string) bool) {
	if factor <= 1 {
		return
	}
	for _, c := range g.order {
		if exempt != nil && exempt(c.name) {
			continue
		}
		d := c.v - base[c.name]
		if d == 0 {
			continue
		}
		c.v += uint64(float64(d)*(factor-1) + 0.5)
	}
}

// Snapshot copies all counters into a map.
func (g *Gatherer) Snapshot() map[string]uint64 {
	m := make(map[string]uint64, len(g.order))
	for _, c := range g.order {
		m[c.name] = c.v
	}
	return m
}

// Names returns all counter names in sorted order.
func (g *Gatherer) Names() []string {
	names := make([]string, 0, len(g.order))
	for _, c := range g.order {
		names = append(names, c.name)
	}
	sort.Strings(names)
	return names
}

// Ratio returns num/(num+den) as a rate in [0,1], and 0 when both are zero.
// Typical use: miss rate = Ratio(misses, hits).
func Ratio(num, den uint64) float64 {
	if num+den == 0 {
		return 0
	}
	return float64(num) / float64(num+den)
}

// FormatRate renders a rate in the canonical fixed-point form used by
// byte-stable reports: always six decimals, no exponent, so the same value
// always serializes to the same bytes.
func FormatRate(v float64) string {
	return strconv.FormatFloat(v, 'f', 6, 64)
}

// missRatePrefixes returns, for sorted counter names, the prefixes <p> that
// have a "<p>.miss" counter and nonzero hit+miss traffic.
func missRatePrefixes(names []string, value func(string) uint64) []string {
	var out []string
	for _, n := range names {
		const suffix = ".miss"
		if len(n) > len(suffix) && n[len(n)-len(suffix):] == suffix {
			prefix := n[:len(n)-len(suffix)]
			if value(prefix+".hit")+value(n) > 0 {
				out = append(out, prefix)
			}
		}
	}
	return out
}

// WriteCanonical writes a counter snapshot to w in canonical, byte-stable
// form: one "name value" line per counter in sorted key order, followed by
// one "<p>.miss_rate <rate>" line (fixed six-decimal formatting) for every
// "<p>.hit"/"<p>.miss" counter pair with traffic. Two snapshots with equal
// contents always serialize to identical bytes, which makes the output
// suitable for golden-file comparison.
func WriteCanonical(w io.Writer, m map[string]uint64) error {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	value := func(n string) uint64 { return m[n] }
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", n, m[n]); err != nil {
			return err
		}
	}
	for _, p := range missRatePrefixes(names, value) {
		rate := Ratio(m[p+".miss"], m[p+".hit"])
		if _, err := fmt.Fprintf(w, "%s.miss_rate %s\n", p, FormatRate(rate)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCanonical writes the gatherer's counters in canonical, byte-stable
// form (see the package-level WriteCanonical).
func (g *Gatherer) WriteCanonical(w io.Writer) error {
	return WriteCanonical(w, g.Snapshot())
}

// Report writes all counters to w, one "name value" line in sorted order,
// followed by derived rates for any pair of counters named "<p>.hit" and
// "<p>.miss".
func (g *Gatherer) Report(w io.Writer) error {
	names := g.Names()
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%-40s %d\n", n, g.Value(n)); err != nil {
			return err
		}
	}
	for _, p := range missRatePrefixes(names, g.Value) {
		rate := Ratio(g.Value(p+".miss"), g.Value(p+".hit"))
		if _, err := fmt.Fprintf(w, "%-40s %.4f\n", p+".miss_rate", rate); err != nil {
			return err
		}
	}
	return nil
}
