package smcore

import (
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/trace"
)

// harness with a custom picker installed.
func newPickerHarness(t *testing.T, mk func() Picker) *smHarness {
	t.Helper()
	h := newSMHarness(t, testSMConfig())
	for _, sc := range h.sm.subcores {
		sc.setPicker(mk())
	}
	return h
}

func TestCustomPickerRunsKernel(t *testing.T) {
	for _, mk := range []struct {
		name string
		f    func() Picker
	}{
		{"mem-first", NewMemFirstPicker},
		{"youngest-first", NewYoungestFirstPicker},
	} {
		t.Run(mk.name, func(t *testing.T) {
			h := newPickerHarness(t, mk.f)
			k := simpleKernel(2, 4, func(b *kbuilder) {
				b.loadAt(1, 0x4000)
				for i := 0; i < 6; i++ {
					b.intOp(trace.Reg(i+2), 1, trace.Reg(i+1))
				}
				b.barrier()
			})
			h.run(t, k)
			want := uint64(2 * 4 * 9)
			if got := h.g.Value("sm.issued"); got != want {
				t.Errorf("issued = %d, want %d", got, want)
			}
		})
	}
}

func TestMemFirstPrefersMemoryWarp(t *testing.T) {
	// Two issuable warps: one at an INT instruction, one at a load. The
	// policy must pick the load.
	aluWarp := &Warp{ID: 1, Age: 1, ibuf: -1, insts: trace.WarpTrace{
		{Op: trace.OpInt, Dst: 1, ActiveMask: 1},
		{Op: trace.OpExit, ActiveMask: 1},
	}}
	memWarp := &Warp{ID: 2, Age: 2, ibuf: -1, insts: trace.WarpTrace{
		{Op: trace.OpLoadGlobal, Dst: 1, ActiveMask: 1}, // one lane, at address 0
		{Op: trace.OpExit, ActiveMask: 1},
	}}
	warps := []*Warp{aluWarp, memWarp}
	p := NewMemFirstPicker()
	if got := p.Pick(0, warps, func(*Warp) bool { return false }); got != 1 {
		t.Errorf("Pick = %d, want 1 (memory warp)", got)
	}
	// With the memory warp excluded, the ALU warp wins.
	if got := p.Pick(0, warps, func(w *Warp) bool { return w == memWarp }); got != 0 {
		t.Errorf("Pick with mem tried = %d, want 0", got)
	}
	// Oldest wins among equals.
	memWarp.insts[0] = aluWarp.insts[0]
	if got := p.Pick(0, warps, func(*Warp) bool { return false }); got != 0 {
		t.Errorf("tie-break Pick = %d, want 0 (older)", got)
	}
}

func TestYoungestFirstOrder(t *testing.T) {
	mk := func(age uint64) *Warp {
		return &Warp{Age: age, ibuf: -1, insts: trace.WarpTrace{
			{Op: trace.OpInt, Dst: 1, ActiveMask: 1},
			{Op: trace.OpExit, ActiveMask: 1},
		}}
	}
	warps := []*Warp{mk(3), mk(9), mk(5)}
	p := NewYoungestFirstPicker()
	if got := p.Pick(0, warps, func(*Warp) bool { return false }); got != 1 {
		t.Errorf("Pick = %d, want 1 (youngest)", got)
	}
	if got := p.Pick(0, warps, func(*Warp) bool { return true }); got != -1 {
		t.Errorf("Pick with every warp tried = %d, want -1", got)
	}
}

// brokenPicker returns out-of-range and already-tried indices; the
// dispatcher must not livelock or crash.
type brokenPicker struct{ calls int }

func (b *brokenPicker) Pick(cycle uint64, warps []*Warp, tried func(*Warp) bool) int {
	b.calls++
	switch b.calls % 3 {
	case 0:
		return len(warps) + 7 // out of range
	case 1:
		return -1
	default:
		for i, w := range warps {
			if w != nil {
				return i // may be non-issuable or already tried
			}
		}
		return -1
	}
}
func (b *brokenPicker) Issued(int, *Warp) {}

func TestBrokenPickerDoesNotLivelock(t *testing.T) {
	h := newPickerHarness(t, func() Picker { return &brokenPicker{} })
	k := simpleKernel(1, 2, func(b *kbuilder) {
		b.intOp(1, 0, 0)
	})
	// The broken picker issues only sometimes; the kernel must still
	// finish (engine events keep arriving) or hit the cycle guard — it
	// must never hang inside one Tick.
	h.bs.LaunchKernel(k)
	if _, err := h.eng.Run(h.bs.KernelDone, 5_000_000); err != nil {
		t.Logf("run ended with %v (acceptable for a broken policy)", err)
	}
}

func TestPickerHelpers(t *testing.T) {
	if Issuable(nil) {
		t.Error("nil warp issuable")
	}
	if _, ok := NextOp(nil); ok {
		t.Error("NextOp(nil) ok")
	}
	if RemainingInsts(nil) != 0 {
		t.Error("RemainingInsts(nil) != 0")
	}
	w := &Warp{ibuf: -1, insts: trace.WarpTrace{
		{Op: trace.OpSFU, Dst: 1, ActiveMask: 1},
		{Op: trace.OpExit, ActiveMask: 1},
	}}
	if !Issuable(w) {
		t.Error("fresh warp not issuable")
	}
	if op, ok := NextOp(w); !ok || op != trace.OpSFU {
		t.Errorf("NextOp = %v, %v", op, ok)
	}
	if RemainingInsts(w) != 2 {
		t.Errorf("RemainingInsts = %d, want 2", RemainingInsts(w))
	}
}

func TestCustomPickerOverridesConfigPolicy(t *testing.T) {
	// Install a picker and verify the built-in policy switch is not
	// consulted (the picker counts its calls).
	counting := &countingPicker{inner: NewMemFirstPicker()}
	cfg := testSMConfig()
	cfg.Scheduler = config.LRR
	h := newSMHarness(t, cfg)
	for _, sc := range h.sm.subcores {
		sc.setPicker(counting)
	}
	k := simpleKernel(1, 4, func(b *kbuilder) {
		b.intOp(1, 0, 0)
		b.intOp(2, 1, 0)
	})
	h.run(t, k)
	if counting.picks == 0 {
		t.Error("custom picker never consulted")
	}
}

type countingPicker struct {
	inner Picker
	picks int
}

func (c *countingPicker) Pick(cycle uint64, warps []*Warp, tried func(*Warp) bool) int {
	c.picks++
	return c.inner.Pick(cycle, warps, tried)
}
func (c *countingPicker) Issued(i int, w *Warp) { c.inner.Issued(i, w) }
