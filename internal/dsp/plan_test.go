package dsp

import (
	"math/rand"
	"testing"
)

// planLengths spans the radix-2 kernel ({1,2,4,8,64,1024}) and the
// Bluestein fallback ({3,5,12,100,240}).
var planLengths = []int{1, 2, 4, 8, 64, 1024, 3, 5, 12, 100, 240}

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// TestPlanMatchesOneShot pins the plan's core guarantee: a planned
// transform computes exactly the same floating-point operations in the
// same order as the one-shot reference fftRef, so results are
// bit-identical — not merely within tolerance — in both directions, for
// both kernels.
func TestPlanMatchesOneShot(t *testing.T) {
	for _, n := range planLengths {
		p, err := NewFFTPlan(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if p.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, p.Len())
		}
		x := randComplex(n, int64(n))
		want := fftRef(x, false)
		got := append([]complex128(nil), x...)
		if err := p.Transform(got, false); err != nil {
			t.Fatalf("n=%d: plan: %v", n, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d forward bin %d: plan %v, one-shot %v (must be bit-identical)",
					n, i, got[i], want[i])
			}
		}
		// Inverse: the plan is unnormalized, so scale by 1/N to compare
		// against the reference's normalized inverse.
		wantInv := fftRef(x, true)
		gotInv := append([]complex128(nil), x...)
		if err := p.Transform(gotInv, true); err != nil {
			t.Fatalf("n=%d: plan inverse: %v", n, err)
		}
		invN := complex(1/float64(n), 0)
		for i := range gotInv {
			if gotInv[i]*invN != wantInv[i] {
				t.Fatalf("n=%d inverse bin %d: plan %v, one-shot %v (must be bit-identical)",
					n, i, gotInv[i]*invN, wantInv[i])
			}
		}
	}
}

func TestPlanRealToMatchesFFTReal(t *testing.T) {
	for _, n := range planLengths {
		p, err := NewFFTPlan(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rng := rand.New(rand.NewSource(int64(n) + 1))
		src := make([]float64, n)
		wide := make([]complex128, n)
		for i := range src {
			src[i] = rng.NormFloat64()
			wide[i] = complex(src[i], 0)
		}
		want := fftRef(wide, false)
		dst := make([]complex128, n)
		if err := p.RealTo(dst, src); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d bin %d: RealTo %v, reference %v", n, i, dst[i], want[i])
			}
		}
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewFFTPlan(0); err == nil {
		t.Fatal("NewFFTPlan(0) succeeded")
	}
	if _, err := NewFFTPlan(-4); err == nil {
		t.Fatal("NewFFTPlan(-4) succeeded")
	}
	p, err := NewFFTPlan(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(make([]complex128, 4), false); err == nil {
		t.Fatal("length-mismatched Transform succeeded")
	}
	if err := p.RealTo(make([]complex128, 8), make([]float64, 4)); err == nil {
		t.Fatal("length-mismatched RealTo succeeded")
	}
}

// TestPlanTransformZeroAlloc pins the whole point of planning: repeated
// transforms allocate nothing, for both kernels.
func TestPlanTransformZeroAlloc(t *testing.T) {
	for _, n := range []int{1024, 240} {
		p, err := NewFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randComplex(n, 99)
		buf := make([]complex128, n)
		copy(buf, x)
		if allocs := testing.AllocsPerRun(50, func() {
			if err := p.Transform(buf, false); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("n=%d: Transform allocates %.1f/op", n, allocs)
		}
		src := make([]float64, n)
		if allocs := testing.AllocsPerRun(50, func() {
			if err := p.RealTo(buf, src); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("n=%d: RealTo allocates %.1f/op", n, allocs)
		}
	}
}

// TestSpectrogramAllocBounded pins the spectrogram render to a fixed
// allocation budget independent of frame count.
func TestSpectrogramAllocBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	signal := make([]float64, 64*1024)
	for i := range signal {
		signal[i] = rng.NormFloat64()
	}
	cfg := SpectrogramConfig{SampleRate: 24576, FrameLen: 256, Hop: 128}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ComputeSpectrogram(signal, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// 511 frames; the render must stay within a fixed handful of setup
	// allocations (plan, window, backing, scratch), not O(frames).
	if allocs > 40 {
		t.Fatalf("ComputeSpectrogram allocates %.0f/op for 511 frames, want a fixed handful", allocs)
	}
}
