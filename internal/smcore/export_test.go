package smcore

import (
	"fmt"
	"testing"
)

// ReadyCheck is the ready-set oracle's tally: how often it ran, the first
// disagreement it found, and the most warps it saw resident in one sub-core.
type ReadyCheck struct {
	Checks      int
	Mismatch    string
	MaxResident int
}

// CheckReadySets makes every SM, for the rest of the test, compare each
// sub-core's ready set with a fresh issuable() scan of its slots after every
// Tick and every completion. The scan lives here, in a test file, so the
// product build holds only the nil hook.
func CheckReadySets(tb testing.TB) *ReadyCheck {
	rc := &ReadyCheck{}
	readyCheck = func(sm *SM) {
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
			}
			if resident != sc.resident && rc.Mismatch == "" {
				rc.Mismatch = fmt.Sprintf("SM%d sub-core %d: resident count %d, %d slots occupied",
					sm.id, sc.index, sc.resident, resident)
			}
			rc.MaxResident = max(rc.MaxResident, resident)
		}
	}
	tb.Cleanup(func() { readyCheck = nil })
	return rc
}
