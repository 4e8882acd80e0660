package smcore

import (
	"reflect"
	"testing"

	"swiftsim/internal/trace"
)

// selectGeometry reports the wave and window sizes SelectBlockSample
// derives for a kernel under testSMConfig on numSMs SMs.
func selectGeometry(k *trace.Kernel, numSMs int) (wave, wlen int) {
	wave = BlocksPerSM(testSMConfig(), k) * numSMs
	if wave < 1 {
		wave = 1
	}
	return wave, wave + (wave+1)/2
}

func aluKernel(blocks int) *trace.Kernel {
	return simpleKernel(blocks, 4, func(b *kbuilder) { b.intOp(1, 1, 1) })
}

// TestSelectBlockSampleSmallKernelWhole pins the full-simulation cutoff:
// a kernel whose tail fits inside one sampling window has nothing to
// extrapolate and is returned whole.
func TestSelectBlockSampleSmallKernelWhole(t *testing.T) {
	cfg := testSMConfig()
	k := aluKernel(8)
	wave, wlen := selectGeometry(k, 4)
	if tail := len(k.Blocks) - wave; tail > wlen {
		t.Fatalf("test kernel too large: tail %d exceeds window %d", tail, wlen)
	}
	got := SelectBlockSample(cfg, k, 4, 0, 0)
	if len(got) != len(k.Blocks) {
		t.Fatalf("small kernel sampled: got %d of %d blocks", len(got), len(k.Blocks))
	}
	for i, b := range got {
		if b != i {
			t.Fatalf("small kernel selection is not the identity at %d: %d", i, b)
		}
	}
}

// TestSelectBlockSampleProperties checks the documented invariants on a
// multi-wave grid: determinism, strictly increasing in-range indices, the
// complete first wave, and exactly one window at the default fraction.
func TestSelectBlockSampleProperties(t *testing.T) {
	cfg := testSMConfig()
	k := aluKernel(400)
	wave, wlen := selectGeometry(k, 4)
	if len(k.Blocks)-wave <= wlen {
		t.Fatalf("test kernel not multi-wave: wave %d, window %d", wave, wlen)
	}
	got := SelectBlockSample(cfg, k, 4, 0, 0)
	again := SelectBlockSample(cfg, k, 4, 0, 0)
	if !reflect.DeepEqual(got, again) {
		t.Error("selection is not deterministic across calls")
	}
	if want := wave + wlen; len(got) != want {
		t.Errorf("default selection has %d blocks, want first wave + one window = %d", len(got), want)
	}
	for i, b := range got {
		if b < 0 || b >= len(k.Blocks) {
			t.Fatalf("selected block %d out of range [0,%d)", b, len(k.Blocks))
		}
		if i > 0 && b <= got[i-1] {
			t.Fatalf("selection not strictly increasing at %d: %d after %d", i, b, got[i-1])
		}
		if i < wave && b != i {
			t.Errorf("first wave incomplete: position %d holds block %d", i, b)
		}
	}
}

// TestSelectBlockSampleFracGrowsWindows checks frac scales the window
// count — round(frac×tail/wlen) windows, capped so they cannot overlap —
// and that windows land inside their strata (guaranteed non-overlap shows
// up as strictly increasing output even at the cap).
func TestSelectBlockSampleFracGrowsWindows(t *testing.T) {
	cfg := testSMConfig()
	k := aluKernel(400)
	wave, wlen := selectGeometry(k, 4)
	tail := len(k.Blocks) - wave
	prev := -1
	for _, frac := range []float64{0, 0.25, 0.5, 0.99} {
		got := SelectBlockSample(cfg, k, 4, frac, 0)
		win := (len(got) - wave) / wlen
		if (len(got)-wave)%wlen != 0 {
			t.Fatalf("frac %g: tail sample %d is not a whole number of %d-block windows", frac, len(got)-wave, wlen)
		}
		if win < prev {
			t.Errorf("frac %g selected %d windows, fewer than the %d at a smaller fraction", frac, win, prev)
		}
		if max := tail / wlen; win > max {
			t.Errorf("frac %g selected %d windows, past the non-overlap cap %d", frac, win, max)
		}
		for i := wave + 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("frac %g: windows overlap (%d then %d)", frac, got[i-1], got[i])
			}
		}
		prev = win
	}
}

// TestSelectBlockSampleSeedJitter checks the seed moves the window
// placement while leaving the sample size and the measured first wave
// untouched — and that every seed keeps its windows inside the tail.
func TestSelectBlockSampleSeedJitter(t *testing.T) {
	cfg := testSMConfig()
	k := aluKernel(400)
	wave, _ := selectGeometry(k, 4)
	base := SelectBlockSample(cfg, k, 4, 0, 0)
	moved := false
	for seed := uint64(0); seed < 8; seed++ {
		got := SelectBlockSample(cfg, k, 4, 0, seed)
		if len(got) != len(base) {
			t.Fatalf("seed %d changed the sample size: %d vs %d", seed, len(got), len(base))
		}
		if !reflect.DeepEqual(got[:wave], base[:wave]) {
			t.Fatalf("seed %d perturbed the first wave", seed)
		}
		if got[wave] < wave || got[len(got)-1] >= len(k.Blocks) {
			t.Fatalf("seed %d placed its window outside the tail: [%d,%d]", seed, got[wave], got[len(got)-1])
		}
		if !reflect.DeepEqual(got, base) {
			moved = true
		}
	}
	if !moved {
		t.Error("no seed in 0..7 moved the sampling window; jitter appears disconnected from the seed")
	}
}
