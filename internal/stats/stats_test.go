package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRelError(t *testing.T) {
	if e := RelError(110, 100); math.Abs(e-0.1) > 1e-12 {
		t.Errorf("RelError(110,100) = %v, want 0.1", e)
	}
	if e := RelError(90, 100); math.Abs(e-0.1) > 1e-12 {
		t.Errorf("RelError(90,100) = %v, want 0.1", e)
	}
	if e := RelError(1, 0); !math.IsNaN(e) {
		t.Errorf("RelError with zero actual = %v, want NaN", e)
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(100, 10); s != 10 {
		t.Errorf("Speedup = %v, want 10", s)
	}
	if s := Speedup(100, 0); !math.IsNaN(s) {
		t.Errorf("Speedup with zero = %v, want NaN", s)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.226); got != "22.6%" {
		t.Errorf("Pct = %q", got)
	}
}

// TestQuickGeomeanBounds: the geometric mean of positive values lies
// between their minimum and maximum, and none of them is skipped.
func TestQuickGeomeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g, skipped := GeomeanSkipNonPositive(xs)
		return skipped == 0 && g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeomeanSkipNonPositive(t *testing.T) {
	// Clean input: the plain geometric mean, nothing skipped.
	g, skipped := GeomeanSkipNonPositive([]float64{2, 8})
	if g != 4 || skipped != 0 {
		t.Errorf("clean input: got %v (skipped %d), want 4 (skipped 0)", g, skipped)
	}

	// Contaminated input: zeros, negatives, NaN and +Inf are dropped and
	// counted; the mean comes from the remaining values only.
	xs := []float64{2, 0, 8, -3, math.NaN(), math.Inf(1)}
	g, skipped = GeomeanSkipNonPositive(xs)
	if math.Abs(g-4) > 1e-12 {
		t.Errorf("contaminated input: geomean = %v, want 4", g)
	}
	if skipped != 4 {
		t.Errorf("contaminated input: skipped = %d, want 4", skipped)
	}

	// All values unusable: zero mean, everything skipped.
	g, skipped = GeomeanSkipNonPositive([]float64{0, math.NaN()})
	if g != 0 || skipped != 2 {
		t.Errorf("all-skipped input: got %v (skipped %d), want 0 (skipped 2)", g, skipped)
	}

	// Empty input.
	if g, skipped = GeomeanSkipNonPositive(nil); g != 0 || skipped != 0 {
		t.Errorf("nil input: got %v (skipped %d)", g, skipped)
	}
}
