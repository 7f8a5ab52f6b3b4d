package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"symmetric", []float64{-1, 1}, 0},
		{"typical", []float64{1, 2, 3, 4}, 2.5},
	}
	for _, tt := range tests {
		if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("%s: Mean = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(v); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(v); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Variance(nil) != 0 {
		t.Error("Variance(nil) should be 0")
	}
}

func TestZNormalizeBasic(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	z := ZNormalize(v)
	if !almostEqual(Mean(z), 0, 1e-12) {
		t.Errorf("normalized mean = %v", Mean(z))
	}
	if !almostEqual(StdDev(z), 1, 1e-12) {
		t.Errorf("normalized stddev = %v", StdDev(z))
	}
	// Original must be untouched.
	if v[0] != 1 {
		t.Error("ZNormalize mutated its input")
	}
}

func TestZNormalizeFlat(t *testing.T) {
	z := ZNormalize([]float64{3, 3, 3, 3})
	for _, x := range z {
		if x != 0 {
			t.Errorf("flat series should normalize to zeros, got %v", z)
			break
		}
	}
}

func TestZNormalizeEmpty(t *testing.T) {
	if z := ZNormalize(nil); len(z) != 0 {
		t.Errorf("ZNormalize(nil) = %v", z)
	}
}

func TestZNormalizeIntoAlias(t *testing.T) {
	v := []float64{10, 20, 30}
	ZNormalizeInto(v, v)
	if !almostEqual(Mean(v), 0, 1e-12) {
		t.Errorf("in-place normalize mean = %v", Mean(v))
	}
}

func TestZNormalizeIntoLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	ZNormalizeInto(make([]float64, 2), make([]float64, 3))
}

// Property: Z-normalization is invariant to affine transforms of the input
// (up to sign of the scale).
func TestQuickZNormalizeAffineInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(50)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 10
		}
		if StdDev(v) < 1e-9 {
			continue
		}
		scale := 0.5 + rng.Float64()*10
		shift := rng.Float64()*100 - 50
		w := make([]float64, n)
		for i := range w {
			w[i] = v[i]*scale + shift
		}
		zv, zw := ZNormalize(v), ZNormalize(w)
		for i := range zv {
			if !almostEqual(zv[i], zw[i], 1e-6) {
				t.Fatalf("trial %d: affine invariance violated at %d: %v vs %v", trial, i, zv[i], zw[i])
			}
		}
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := make([]float64, 1000)
	var w Welford
	for i := range v {
		v[i] = rng.NormFloat64()*7 + 3
		w.Add(v[i])
	}
	if w.n != 1000 {
		t.Errorf("Count = %d", w.n)
	}
	if !almostEqual(w.Mean(), Mean(v), 1e-9) {
		t.Errorf("Welford mean %v != batch %v", w.Mean(), Mean(v))
	}
	if !almostEqual(w.Variance(), Variance(v), 1e-9) {
		t.Errorf("Welford variance %v != batch %v", w.Variance(), Variance(v))
	}
	if !almostEqual(w.StdDev(), StdDev(v), 1e-9) {
		t.Errorf("Welford stddev %v != batch %v", w.StdDev(), StdDev(v))
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Error("empty Welford should report zeros")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 {
		t.Error("single observation: mean 5, variance 0")
	}
	w.Add(7)
	if !almostEqual(w.Variance(), 1, 1e-12) {
		t.Errorf("Variance = %v, want 1", w.Variance())
	}
	w.Reset()
	if w.n != 0 || w.Mean() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestMovingAverageBasics(t *testing.T) {
	m, err := NewMovingAverage(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.buf) != 3 {
		t.Errorf("Window = %d", len(m.buf))
	}
	steps := []struct {
		push float64
		want float64
		n    int
	}{
		{3, 3, 1},
		{6, 4.5, 2},
		{9, 6, 3},
		{12, 9, 3}, // 6,9,12
		{0, 7, 3},  // 9,12,0
		{0, 4, 3},  // 12,0,0
		{0, 0, 3},  // 0,0,0
	}
	for i, s := range steps {
		got := m.Push(s.push)
		if !almostEqual(got, s.want, 1e-12) {
			t.Errorf("step %d: Push(%v) = %v, want %v", i, s.push, got, s.want)
		}
		if m.Count() != s.n {
			t.Errorf("step %d: Count = %d, want %d", i, m.Count(), s.n)
		}
	}
	m.Reset()
	if m.Count() != 0 || m.Mean() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestMovingAverageBadWindow(t *testing.T) {
	for _, w := range []int{0, -1} {
		if _, err := NewMovingAverage(w); err == nil {
			t.Errorf("window %d should be rejected", w)
		}
	}
}

// Property: the moving average always equals the mean of the last
// min(window, count) pushed values.
func TestQuickMovingAverage(t *testing.T) {
	f := func(raw []int16, wsel uint8) bool {
		window := 1 + int(wsel)%20
		m, err := NewMovingAverage(window)
		if err != nil {
			return false
		}
		hist := make([]float64, 0, len(raw))
		for _, r := range raw {
			x := float64(r) / 100
			hist = append(hist, x)
			got := m.Push(x)
			lo := len(hist) - window
			if lo < 0 {
				lo = 0
			}
			if !almostEqual(got, Mean(hist[lo:]), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
