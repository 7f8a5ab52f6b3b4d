package dsp

import (
	"math"
	"testing"
)

func TestWindowNames(t *testing.T) {
	for w := WindowRect; w <= WindowBlackman; w++ {
		if w.String() == "" {
			t.Errorf("window %d has empty name", w)
		}
	}
	if WindowFunc(99).String() != "window(99)" {
		t.Error("unknown window rendering")
	}
}

func TestWelchWindowShape(t *testing.T) {
	coef, err := WindowWelch.Coefficients(101)
	if err != nil {
		t.Fatal(err)
	}
	// Endpoints are zero, midpoint is one.
	if math.Abs(coef[0]) > 1e-12 || math.Abs(coef[100]) > 1e-12 {
		t.Errorf("Welch endpoints = %v, %v; want 0", coef[0], coef[100])
	}
	if math.Abs(coef[50]-1) > 1e-12 {
		t.Errorf("Welch midpoint = %v, want 1", coef[50])
	}
	// Symmetric and parabolic: w[i] = 1 - ((i-50)/50)^2.
	for i := range coef {
		d := (float64(i) - 50) / 50
		want := 1 - d*d
		if math.Abs(coef[i]-want) > 1e-12 {
			t.Fatalf("Welch[%d] = %v, want %v", i, coef[i], want)
		}
		if math.Abs(coef[i]-coef[100-i]) > 1e-12 {
			t.Fatalf("Welch asymmetric at %d", i)
		}
	}
}

func TestHannWindowShape(t *testing.T) {
	coef, _ := WindowHann.Coefficients(9)
	if math.Abs(coef[0]) > 1e-12 || math.Abs(coef[8]) > 1e-12 {
		t.Error("Hann endpoints should be 0")
	}
	if math.Abs(coef[4]-1) > 1e-12 {
		t.Error("Hann midpoint should be 1")
	}
}

func TestHammingWindowShape(t *testing.T) {
	coef, _ := WindowHamming.Coefficients(9)
	if math.Abs(coef[0]-0.08) > 1e-9 {
		t.Errorf("Hamming endpoint = %v, want 0.08", coef[0])
	}
	if math.Abs(coef[4]-1) > 1e-9 {
		t.Errorf("Hamming midpoint = %v, want 1", coef[4])
	}
}

func TestBlackmanWindowShape(t *testing.T) {
	coef, _ := WindowBlackman.Coefficients(9)
	if math.Abs(coef[0]) > 1e-9 {
		t.Errorf("Blackman endpoint = %v, want ~0", coef[0])
	}
	if math.Abs(coef[4]-1) > 1e-9 {
		t.Errorf("Blackman midpoint = %v, want 1", coef[4])
	}
}

func TestRectWindow(t *testing.T) {
	coef, _ := WindowRect.Coefficients(5)
	for i, c := range coef {
		if c != 1 {
			t.Errorf("rect[%d] = %v", i, c)
		}
	}
}

func TestWindowBounds(t *testing.T) {
	for w := WindowRect; w <= WindowBlackman; w++ {
		coef, err := w.Coefficients(64)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range coef {
			if c < -1e-9 || c > 1+1e-9 {
				t.Errorf("%s[%d] = %v outside [0,1]", w, i, c)
			}
		}
	}
}

func TestWindowSingle(t *testing.T) {
	for w := WindowRect; w <= WindowBlackman; w++ {
		coef, err := w.Coefficients(1)
		if err != nil || len(coef) != 1 || coef[0] != 1 {
			t.Errorf("%s: single-point window = %v, %v", w, coef, err)
		}
	}
}

func TestWindowErrors(t *testing.T) {
	if _, err := WindowWelch.Coefficients(0); err == nil {
		t.Error("zero length should error")
	}
	if _, err := WindowFunc(99).Coefficients(4); err == nil {
		t.Error("unknown window should error")
	}
	if _, err := NewWindow(WindowFunc(99), 4); err == nil {
		t.Error("NewWindow with unknown function should error")
	}
}

func TestWindowApply(t *testing.T) {
	got := []float64{2, 2, 2, 2, 2}
	w, err := NewWindow(WindowWelch, len(got))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ApplyTo(got); err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[2]-2) > 1e-12 {
		t.Errorf("midpoint after apply = %v, want 2", got[2])
	}
	if math.Abs(got[0]) > 1e-12 {
		t.Errorf("endpoint after apply = %v, want 0", got[0])
	}
}

func TestPrecomputedWindow(t *testing.T) {
	w, err := NewWindow(WindowWelch, 8)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 8 {
		t.Errorf("Len=%d", w.Len())
	}
	x := make([]float64, 8)
	for i := range x {
		x[i] = 1
	}
	if err := w.ApplyTo(x); err != nil {
		t.Fatal(err)
	}
	coef, _ := WindowWelch.Coefficients(8)
	for i := range x {
		if math.Abs(x[i]-coef[i]) > 1e-12 {
			t.Fatalf("ApplyTo[%d] = %v, want %v", i, x[i], coef[i])
		}
	}
	if err := w.ApplyTo(make([]float64, 5)); err == nil {
		t.Error("length mismatch should error")
	}
}

// Windowing reduces spectral leakage: for an off-bin tone, the energy more
// than two bins away from the peak must be lower with a Welch window than
// with a rectangular one.
func TestWelchWindowReducesLeakage(t *testing.T) {
	const n = 256
	const freqBins = 10.37 // deliberately off-bin
	rect := make([]float64, n)
	welch := make([]float64, n)
	for i := range rect {
		v := math.Sin(2 * math.Pi * freqBins * float64(i) / n)
		rect[i] = v
		welch[i] = v
	}
	w, err := NewWindow(WindowWelch, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ApplyTo(welch); err != nil {
		t.Fatal(err)
	}
	leakage := func(x []float64) float64 {
		mags := planMagnitudes(t, x, n/2)
		peak := 0
		for i, m := range mags {
			if m > mags[peak] {
				peak = i
			}
		}
		var far float64
		for i, m := range mags {
			if i < peak-2 || i > peak+2 {
				far += m * m
			}
		}
		var total float64
		for _, m := range mags {
			total += m * m
		}
		return far / total
	}
	lr, lw := leakage(rect), leakage(welch)
	if lw >= lr {
		t.Errorf("Welch leakage %v should be below rectangular %v", lw, lr)
	}
}
