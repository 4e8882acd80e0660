package engine

import (
	"fmt"
	"testing"
)

// WakeCheck is the wake-contract oracle's tally: how often it ran and the
// first violation it found.
type WakeCheck struct {
	Checks   int
	Mismatch string
}

// CheckWakes makes every engine, for the rest of the test, check after each
// visited cycle that an entry counted busy but off the tick set is a waiter
// that still reports Busy and Waiting, and that busyCount counts exactly
// the entries polled busy. A waiter that misses a wake shows here by name,
// at the cycle it went wrong, instead of as a moved count.
func CheckWakes(tb testing.TB) *WakeCheck {
	wc := &WakeCheck{}
	wakeCheck = func(e *Engine) {
		wc.Checks++
		if wc.Mismatch != "" {
			return
		}
		busy := 0
		for i := range e.entries {
			en := &e.entries[i]
			if !en.busy {
				continue
			}
			busy++
			if e.isActive(i) {
				continue
			}
			waiting := en.wait != nil && en.wait.Waiting()
			if !en.t.Busy() || !waiting {
				wc.Mismatch = fmt.Sprintf("cycle %d: %s (entry %d) is off the tick set and counted busy, but Busy() %v, waiter %v, Waiting() %v",
					e.cycle, en.t.Name(), i, en.t.Busy(), en.wait != nil, waiting)
				return
			}
		}
		if busy != e.busyCount {
			wc.Mismatch = fmt.Sprintf("cycle %d: busyCount %d, %d entries polled busy", e.cycle, e.busyCount, busy)
		}
	}
	tb.Cleanup(func() { wakeCheck = nil })
	return wc
}

// isActive reports whether entry idx is on the tick set.
func (e *Engine) isActive(idx int) bool { return e.active[idx>>6]&(1<<(idx&63)) != 0 }
