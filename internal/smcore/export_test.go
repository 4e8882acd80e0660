package smcore

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updatePins = flag.Bool("update-pins", false, "rewrite the package's pinned testdata fixtures (only from a tree whose scheduling and front end are known good)")

// CheckPinned compares got with the pinned fixture at path, or rewrites the
// fixture under -update-pins.
func CheckPinned(t *testing.T, path, got string) {
	t.Helper()
	if *updatePins {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s moved (-update-pins rewrites it):\n%s", path, diffFirst(string(want), got))
	}
}

// diffFirst names the first line where two texts differ.
func diffFirst(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl, gl)
		}
	}
	return "texts equal"
}

// order returns the instruction cache's resident lines, oldest first.
func (ic *ICache) order() []uint64 {
	lines := make([]uint64, ic.n)
	for i := range lines {
		lines[i] = ic.lines[ic.slot(i)]
	}
	return lines
}

// RaceEnabled reports that the race detector is on.
const RaceEnabled = raceEnabled

// ReadyCheck is the ready-set oracle's tally: how often it ran, the first
// disagreement it found, and the most warps it saw resident in one sub-core.
type ReadyCheck struct {
	Checks      int
	Mismatch    string
	MaxResident int
}

// CheckReadySets makes every SM, for the rest of the test, compare each
// sub-core's ready set with a fresh issuable() scan of its slots, its fetch
// set with a fresh wantsFetch scan, and its busy-unit set with a fresh
// Busy() scan of its units, after every Tick and every completion (where a
// busy unit must have its bit); a sub-core without an instruction cache
// must keep its fetch set empty. The scans live here, in a test file, so
// the product build holds only the nil hook.
func CheckReadySets(tb testing.TB) *ReadyCheck {
	rc := &ReadyCheck{}
	readyCheck = func(sm *SM, tick bool) {
		rc.Checks++
		for _, sc := range sm.subcores {
			resident := 0
			for slot, w := range sc.warps {
				if w != nil {
					resident++
				}
				want := w != nil && w.issuable()
				if got := sc.isReady(slot); got != want && rc.Mismatch == "" {
					rc.Mismatch = fmt.Sprintf("SM%d sub-core %d slot %d: ready bit %v, issuable() %v (check %d)",
						sm.id, sc.index, slot, got, want, rc.Checks)
				}
				want = w != nil && w.wantsFetch(ibufDepth)
				if got := hasBit(sc.wants, slot); got != want && rc.Mismatch == "" {
					rc.Mismatch = fmt.Sprintf("SM%d sub-core %d slot %d: fetch bit %v, wantsFetch %v (check %d)",
						sm.id, sc.index, slot, got, want, rc.Checks)
				}
			}
			if sc.icache == nil && anyBit(sc.wants) && rc.Mismatch == "" {
				rc.Mismatch = fmt.Sprintf("SM%d sub-core %d: fetch set %x without an instruction cache",
					sm.id, sc.index, sc.wants)
			}
			if resident != sc.resident && rc.Mismatch == "" {
				rc.Mismatch = fmt.Sprintf("SM%d sub-core %d: resident count %d, %d slots occupied",
					sm.id, sc.index, sc.resident, resident)
			}
			rc.MaxResident = max(rc.MaxResident, resident)
		}
		for i, u := range sm.unitList {
			// Mid-tick, a unit drained by its own Tick may keep its bit
			// until the walk reaches the clear; a busy unit without its bit
			// would never be ticked again.
			got, want := hasBit(sm.busyUnits, i), u.Busy()
			if (got != want && (tick || want)) && rc.Mismatch == "" {
				rc.Mismatch = fmt.Sprintf("SM%d unit %d (%s): busy bit %v, Busy() %v (check %d)",
					sm.id, i, u.Name(), got, want, rc.Checks)
			}
		}
	}
	tb.Cleanup(func() { readyCheck = nil })
	return rc
}
