package dsp

import (
	"errors"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

// fftRef is the one-shot reference FFT that FFTPlan is pinned to bit for
// bit (TestPlanMatchesOneShot): it recomputes its twiddles per call by the
// same running product the plan tabulates and runs the same butterflies.
// Powers of two use radix-2 Cooley-Tukey; other lengths use Bluestein's
// chirp-z transform built on the radix-2 kernel. The inverse is scaled by
// 1/N. x is not modified.
func fftRef(x []complex128, inverse bool) []complex128 {
	out := append([]complex128(nil), x...)
	n := len(out)
	switch {
	case n <= 1:
	case n&(n-1) == 0:
		radix2Ref(out, inverse)
	default:
		bluesteinRef(out, inverse)
	}
	if inverse && n > 0 {
		invN := complex(1/float64(n), 0)
		for i := range out {
			out[i] *= invN
		}
	}
	return out
}

// radix2Ref is an iterative in-place Cooley-Tukey FFT for power-of-two
// lengths (unnormalized in both directions).
func radix2Ref(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		// w = exp(i*step); computed once per stage, advanced by
		// multiplication per butterfly column.
		wStep := complex(math.Cos(step), math.Sin(step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// bluesteinRef computes an arbitrary-length unnormalized DFT as a
// convolution, using power-of-two radix-2 FFTs of length m >= 2n-1.
func bluesteinRef(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp: c[k] = exp(sign*pi*i*k^2/n). Compute k^2 mod 2n to keep the
	// argument small and the chirp exactly periodic.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		k2 := (int64(k) * int64(k)) % int64(2*n)
		theta := sign * math.Pi * float64(k2) / float64(n)
		chirp[k] = complex(math.Cos(theta), math.Sin(theta))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		bc := complex(real(chirp[k]), -imag(chirp[k])) // conj
		b[k] = bc
		if k > 0 {
			b[m-k] = bc
		}
	}
	radix2Ref(a, false)
	radix2Ref(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2Ref(a, true)
	invM := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * invM * chirp[k]
	}
}

// naiveDFT computes the DFT by direct O(n²) summation, the correctness
// oracle for both kernels and the ablation baseline
// (BenchmarkNaiveDFT1024). k·t is reduced mod n in integers so every
// angle lies in (-2π, 0] and its rounding error does not grow with n.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			r := (int64(k) * int64(t)) % int64(n)
			theta := -2 * math.Pi * float64(r) / float64(n)
			sum += x[t] * complex(math.Cos(theta), math.Sin(theta))
		}
		out[k] = sum
	}
	return out
}

// planFFT transforms a copy of x with a fresh FFTPlan, scaling the
// inverse by 1/N like fftRef.
func planFFT(t testing.TB, x []complex128, inverse bool) []complex128 {
	t.Helper()
	p, err := NewFFTPlan(len(x))
	if err != nil {
		t.Fatal(err)
	}
	out := append([]complex128(nil), x...)
	if err := p.Transform(out, inverse); err != nil {
		t.Fatal(err)
	}
	if inverse {
		invN := complex(1/float64(len(out)), 0)
		for i := range out {
			out[i] *= invN
		}
	}
	return out
}

// kernels lists the transforms every property test checks: the
// production FFTPlan and the one-shot reference it is pinned to.
var kernels = []struct {
	name string
	fft  func(t testing.TB, x []complex128, inverse bool) []complex128
}{
	{"plan", planFFT},
	{"reference", func(_ testing.TB, x []complex128, inverse bool) []complex128 { return fftRef(x, inverse) }},
}

// planMagnitudes returns |X[k]| for the first bins bins of the planned
// transform of the real signal x.
func planMagnitudes(t testing.TB, x []float64, bins int) []float64 {
	t.Helper()
	p, err := NewFFTPlan(len(x))
	if err != nil {
		t.Fatal(err)
	}
	spec := make([]complex128, len(x))
	if err := p.RealTo(spec, x); err != nil {
		t.Fatal(err)
	}
	mags := make([]float64, bins)
	MagnitudesInto(mags, spec[:bins])
	return mags
}

func cAlmostEqual(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func TestFFTImpulse(t *testing.T) {
	// DFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	for _, kn := range kernels {
		for k, v := range kn.fft(t, x, false) {
			if !cAlmostEqual(v, 1, 1e-12) {
				t.Errorf("%s: X[%d] = %v, want 1", kn.name, k, v)
			}
		}
	}
}

func TestFFTConstant(t *testing.T) {
	// DFT of a constant is an impulse at DC.
	x := make([]complex128, 16)
	for i := range x {
		x[i] = 2
	}
	for _, kn := range kernels {
		X := kn.fft(t, x, false)
		if !cAlmostEqual(X[0], 32, 1e-9) {
			t.Errorf("%s: X[0] = %v, want 32", kn.name, X[0])
		}
		for k := 1; k < len(X); k++ {
			if !cAlmostEqual(X[k], 0, 1e-9) {
				t.Errorf("%s: X[%d] = %v, want 0", kn.name, k, X[k])
			}
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A pure complex exponential at bin 3 transforms to N at bin 3.
	const n = 64
	x := make([]complex128, n)
	for i := range x {
		theta := 2 * math.Pi * 3 * float64(i) / n
		x[i] = cmplx.Exp(complex(0, theta))
	}
	for _, kn := range kernels {
		for k, v := range kn.fft(t, x, false) {
			want := complex(0, 0)
			if k == 3 {
				want = complex(n, 0)
			}
			if !cAlmostEqual(v, want, 1e-8) {
				t.Errorf("%s: X[%d] = %v, want %v", kn.name, k, v, want)
			}
		}
	}
}

func TestFFTMatchesNaiveDFTPowerOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 4, 8, 32, 128, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		for _, kn := range kernels {
			got := kn.fft(t, x, false)
			for k := range want {
				if !cAlmostEqual(got[k], want[k], 1e-7*float64(n)) {
					t.Fatalf("%s n=%d: X[%d] = %v, naive %v", kn.name, n, k, got[k], want[k])
				}
			}
		}
	}
}

func TestFFTMatchesNaiveDFTArbitraryLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{3, 5, 6, 7, 12, 17, 100, 241, 360, 919} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		for _, kn := range kernels {
			got := kn.fft(t, x, false)
			for k := range want {
				if !cAlmostEqual(got[k], want[k], 1e-6*float64(n)) {
					t.Fatalf("%s n=%d: X[%d] = %v, naive %v", kn.name, n, k, got[k], want[k])
				}
			}
		}
	}
}

// unitRoundoff is u = 2⁻⁵³, the float64 unit roundoff.
const unitRoundoff = 0x1p-53

// radix2ErrorBound returns the relative 2-norm error bound of a
// power-of-two plan: Higham, Accuracy and Stability of Numerical
// Algorithms (2nd ed.), Theorem 24.2 — ‖X̂−X‖ ≤ ‖X‖·Lη/(1−Lη) for
// n = 2^L, η = μ + γ₄(√2 + μ), γ₄ = 4u/(1−4u), where μ bounds the error
// of every twiddle factor used. The plan's twiddles are running products
// whose drift a worst-case bound would put at O(n·u), so μ is measured
// instead: each tabulated factor against exp(∓iπk/h) evaluated by
// math.Cos/Sin, plus 10u for that reference's own error (its angle
// πk/h is rounded twice, ≤ 2πu < 7u, and each of Cos and Sin is within
// one ulp, ≤ 2√2u in modulus).
func radix2ErrorBound(p *FFTPlan) float64 {
	u := unitRoundoff
	mu := 0.0
	for h := 1; h < p.n; h <<= 1 {
		for k := 0; k < h; k++ {
			for _, d := range []struct {
				tw   []complex128
				sign float64
			}{{p.twF, -1}, {p.twI, 1}} {
				theta := d.sign * math.Pi * float64(k) / float64(h)
				exact := complex(math.Cos(theta), math.Sin(theta))
				mu = math.Max(mu, cmplx.Abs(d.tw[h-1+k]-exact))
			}
		}
	}
	mu += 10 * u
	l := float64(bits.TrailingZeros(uint(p.n)))
	g4 := 4 * u / (1 - 4*u)
	eta := mu + g4*(math.Sqrt2+mu)
	return l * eta / (1 - l*eta)
}

// TestPlanMatchesNaiveDFTWithinBound checks the production kernel against
// the direct sum under an error bound derived from rounding analysis, not
// fitted to the observed error. All norms are 2-norms over the n bins; u
// is the unit roundoff, and by Parseval the exact spectrum has
// ‖X‖ = √n‖x‖. The test asserts ‖plan − naive‖ ≤ (e_plan + e_naive)·‖X‖,
// the triangle inequality through the exact X, with 1 % headroom for the
// second-order terms in u the first-order bounds below drop.
//
// Direct sum (e_naive). naiveDFT's angle −2πr/n (r = kt mod n < n) is
// rounded three times, ≤ 3u·2π < 19u; Cos and Sin add ≤ 2√2u, so each
// twiddle is within 22u. The complex product adds ≤ √2γ₂ ≈ 2.83u of the
// term and the n-term recursive sum ≤ √2γ_{n−1} ≈ 1.42n·u of Σ|terms|.
// Per bin |X̂_k − X_k| ≤ ‖x‖₁(25 + 1.42n)u; over n bins, with
// ‖x‖₁ ≤ √n‖x‖, the error is ≤ n‖x‖(25 + 1.42n)u, so
// e_naive = √n(25 + 1.42n)u.
//
// Power of two (e_plan = ε, radix2ErrorBound of the plan itself).
//
// Bluestein (m = 2^L ≥ 2n−1, ε = radix2ErrorBound of the length-m
// sub-plan, β = max|B̂_i| read from the plan's filter spectrum). The
// chirp c_k = exp(−iπ·(k² mod 2n)/n) is rounded like the twiddles above
// from an angle in (−2π, 0] rounded twice: |ĉ − c| ≤ 10u.
//  1. a = x∘c: ‖â − a‖ ≤ (10 + 2.83)u‖x‖ ≤ 13u‖x‖, and ‖a‖ = ‖x‖.
//  2. A = DFT_m(a): ‖A‖ = √m‖x‖, ‖Â − A‖ ≤ √m‖x‖(ε + 13u).
//  3. B = DFT_m(b), b the 2n−1 unit conjugate-chirp taps:
//     ‖B̂ − B‖_∞ ≤ ‖B̂ − B‖ ≤ √(m(2n−1))(ε + 10u).
//  4. P = A∘B: ‖P̂ − P‖ ≤ β‖Â − A‖ + ‖A‖‖B̂ − B‖_∞ + 2.83uβ‖Â‖.
//  5. q = IDFT_m(P) (unnormalized, norms scale by √m):
//     ‖q̂ − q‖ ≤ √m‖P̂ − P‖ + ε√m‖P̂‖, with ‖P̂‖ ≤ β√m‖x‖.
//  6. X_k = q_k·c_k/m for k < n (1/m is exact; the two products and ĉ
//     add ≤ 16u‖X‖).
//
// Dividing the sum by ‖X‖ = √n‖x‖:
// e_plan = [β(2ε + 16u) + √(m(2n−1))(ε + 10u)]/√n + 16u.
func TestPlanMatchesNaiveDFTWithinBound(t *testing.T) {
	u := unitRoundoff
	for _, n := range []int{2, 8, 64, 1024, 3, 12, 100, 919} {
		p, err := NewFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		var ePlan float64
		if bp := p.blue; bp == nil {
			ePlan = radix2ErrorBound(p)
		} else {
			eps := radix2ErrorBound(bp.sub)
			beta := 0.0
			for _, v := range bp.bhatF {
				beta = math.Max(beta, cmplx.Abs(v))
			}
			nf, mf := float64(n), float64(bp.m)
			ePlan = (beta*(2*eps+16*u)+math.Sqrt(mf*(2*nf-1))*(eps+10*u))/math.Sqrt(nf) + 16*u
		}
		eNaive := math.Sqrt(float64(n)) * (25 + 1.42*float64(n)) * u
		x := randComplex(n, int64(1000+n))
		var xNorm2 float64
		for _, v := range x {
			xNorm2 += real(v)*real(v) + imag(v)*imag(v)
		}
		got := append([]complex128(nil), x...)
		if err := p.Transform(got, false); err != nil {
			t.Fatal(err)
		}
		want := naiveDFT(x)
		var diff2 float64
		for k := range got {
			d := got[k] - want[k]
			diff2 += real(d)*real(d) + imag(d)*imag(d)
		}
		diff, bound := math.Sqrt(diff2), 1.01*(ePlan+eNaive)*math.Sqrt(float64(n)*xNorm2)
		t.Logf("n=%d: ‖plan − naive‖ = %.3g, derived bound %.3g", n, diff, bound)
		if diff > bound {
			t.Errorf("n=%d: ‖plan − naive‖ = %.3g exceeds derived bound %.3g (e_plan %.3g, e_naive %.3g)",
				n, diff, bound, ePlan, eNaive)
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 7, 16, 100, 128} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for _, kn := range kernels {
			back := kn.fft(t, kn.fft(t, x, false), true)
			for i := range x {
				if !cAlmostEqual(back[i], x[i], 1e-9*float64(n)) {
					t.Fatalf("%s n=%d: round trip[%d] = %v, want %v", kn.name, n, i, back[i], x[i])
				}
			}
		}
	}
}

// TestFFTRealMatchesComplex: RealTo is exactly Transform of the widened
// signal, bit for bit.
func TestFFTRealMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{128, 100} {
		x := make([]float64, n)
		c := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			c[i] = complex(x[i], 0)
		}
		p, err := NewFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, n)
		if err := p.RealTo(got, x); err != nil {
			t.Fatal(err)
		}
		if err := p.Transform(c, false); err != nil {
			t.Fatal(err)
		}
		for k := range c {
			if got[k] != c[k] {
				t.Fatalf("n=%d: RealTo[%d] = %v, Transform %v", n, k, got[k], c[k])
			}
		}
	}
}

func TestFFTRealConjugateSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{64, 50} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
		}
		for _, kn := range kernels {
			X := kn.fft(t, x, false)
			for k := 1; k < n/2; k++ {
				if !cAlmostEqual(X[k], cmplx.Conj(X[n-k]), 1e-9) {
					t.Fatalf("%s n=%d: conjugate symmetry violated at bin %d", kn.name, n, k)
				}
			}
		}
	}
}

// Property: Parseval's theorem — energy in time equals energy in frequency
// divided by N.
func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{8, 13, 64, 100, 256} {
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timeEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		for _, kn := range kernels {
			var freqEnergy float64
			for _, v := range kn.fft(t, x, false) {
				freqEnergy += real(v)*real(v) + imag(v)*imag(v)
			}
			freqEnergy /= float64(n)
			if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
				t.Errorf("%s n=%d: Parseval violated: time %v freq %v", kn.name, n, timeEnergy, freqEnergy)
			}
		}
	}
}

// Property: the DFT is linear.
func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n = 50 // exercises Bluestein
	x := make([]complex128, n)
	y := make([]complex128, n)
	xy := make([]complex128, n)
	const alpha = 2.5
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		y[i] = complex(rng.NormFloat64(), 0)
		xy[i] = x[i]*complex(alpha, 0) + y[i]
	}
	for _, kn := range kernels {
		X, Y, XY := kn.fft(t, x, false), kn.fft(t, y, false), kn.fft(t, xy, false)
		for k := range XY {
			want := X[k]*complex(alpha, 0) + Y[k]
			if !cAlmostEqual(XY[k], want, 1e-8) {
				t.Fatalf("%s: linearity violated at bin %d", kn.name, k)
			}
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	if _, err := NewFFTPlan(0); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("NewFFTPlan(0) = %v, want ErrEmptyInput", err)
	}
	if _, err := ComputeSpectrogram(nil, SpectrogramConfig{SampleRate: 1, FrameLen: 4}); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty spectrogram = %v, want ErrEmptyInput", err)
	}
}

// TestFFTDoesNotMutateInput: RealTo reads its real signal and leaves it
// intact, on the Bluestein path too (ComputeSpectrogram reuses its frame).
func TestFFTDoesNotMutateInput(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5} // length 5: Bluestein path
	orig := append([]float64(nil), x...)
	p, err := NewFFTPlan(len(x))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RealTo(make([]complex128, len(x)), x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("RealTo mutated its input")
		}
	}
}

func TestMagnitudes(t *testing.T) {
	got := make([]float64, 4)
	MagnitudesInto(got, []complex128{3 + 4i, -5, 2i, 0})
	want := []float64{5, 5, 2, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("MagnitudesInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	benchmarkPlan(b, 1024)
}

// BenchmarkNaiveDFT1024 is the ablation justifying the FFT substrate:
// compare with BenchmarkFFT1024 (O(n log n) vs O(n²)).
func BenchmarkNaiveDFT1024(b *testing.B) {
	x := randComplex(1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveDFT(x)
	}
}

func BenchmarkFFTBluestein919(b *testing.B) {
	// 919 is prime; exercises the chirp-z path at the paper's record
	// granularity.
	benchmarkPlan(b, 919)
}

func benchmarkPlan(b *testing.B, n int) {
	p, err := NewFFTPlan(n)
	if err != nil {
		b.Fatal(err)
	}
	x := randComplex(n, 1)
	buf := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := p.Transform(buf, false); err != nil {
			b.Fatal(err)
		}
	}
}
