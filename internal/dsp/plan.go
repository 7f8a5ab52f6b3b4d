package dsp

import (
	"fmt"
	"math"
	"math/bits"
)

// FFTPlan precomputes everything a transform of one fixed length needs —
// the bit-reversal permutation, every stage's twiddle factors, and (for
// non-power-of-two lengths) the Bluestein chirp, precomputed filter
// spectrum and convolution scratch — so repeated transforms allocate
// nothing. The hot DSP paths (ComputeSpectrogram, the ops/spectral DFT
// operator) plan once per frame length and transform in place per frame.
//
// A plan computes exactly the same floating-point operations in exactly
// the same order as the one-shot reference FFT in the package tests, so
// planned and reference results are bit-identical.
//
// A plan is not safe for concurrent use: Transform shares the plan's
// scratch buffers. Each goroutine plans its own.
type FFTPlan struct {
	n int
	// Power-of-two kernel tables (for n itself, or for the Bluestein
	// convolution length m).
	rev []int32 // bit-reversal permutation
	// Twiddle factors, forward/inverse: the stage of half-size h uses
	// tw[h-1 : 2h-1], n-1 entries in all.
	twF, twI []complex128
	// Bluestein state; nil when n is a power of two.
	blue *bluesteinPlan
}

// bluesteinPlan holds the precomputed chirps, filter spectra and scratch
// for an arbitrary-length transform via chirp-z convolution.
type bluesteinPlan struct {
	m              int
	sub            *FFTPlan     // power-of-two plan of length m
	chirpF, chirpI []complex128 // exp(∓πik²/n), length n
	bhatF, bhatI   []complex128 // FFT of the chirp filter, length m
	a              []complex128 // convolution scratch, length m
}

// NewFFTPlan returns a transform plan for length n. Planning is the only
// allocating step; every subsequent Transform/RealTo reuses the plan's
// tables and scratch.
func NewFFTPlan(n int) (*FFTPlan, error) {
	if n <= 0 {
		return nil, ErrEmptyInput
	}
	if n&(n-1) == 0 {
		return newPow2Plan(n), nil
	}
	p := &FFTPlan{n: n}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	bp := &bluesteinPlan{
		m:      m,
		sub:    newPow2Plan(m),
		chirpF: make([]complex128, n),
		chirpI: make([]complex128, n),
		bhatF:  make([]complex128, m),
		bhatI:  make([]complex128, m),
		a:      make([]complex128, m),
	}
	for _, dir := range []struct {
		sign        float64
		chirp, bhat []complex128
	}{{-1, bp.chirpF, bp.bhatF}, {1, bp.chirpI, bp.bhatI}} {
		for k := 0; k < n; k++ {
			k2 := (int64(k) * int64(k)) % int64(2*n)
			theta := dir.sign * math.Pi * float64(k2) / float64(n)
			dir.chirp[k] = complex(math.Cos(theta), math.Sin(theta))
		}
		for k := 0; k < n; k++ {
			bc := complex(real(dir.chirp[k]), -imag(dir.chirp[k])) // conj
			dir.bhat[k] = bc
			if k > 0 {
				dir.bhat[m-k] = bc
			}
		}
		bp.sub.radix2(dir.bhat, false)
	}
	p.blue = bp
	return p, nil
}

// newPow2Plan builds the radix-2 tables for a power-of-two length.
func newPow2Plan(n int) *FFTPlan {
	p := &FFTPlan{n: n}
	if n == 1 {
		return p
	}
	p.rev = make([]int32, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	p.twF = make([]complex128, n-1)
	p.twI = make([]complex128, n-1)
	for half := 1; half < n; half <<= 1 {
		step := math.Pi / float64(half)
		twiddles(p.twF[half-1:2*half-1], complex(math.Cos(-step), math.Sin(-step)))
		twiddles(p.twI[half-1:2*half-1], complex(math.Cos(step), math.Sin(step)))
	}
	return p
}

// twiddles fills tw with 1, wStep, wStep², ... by the running product
// the reference radix-2 kernel advances per butterfly, so the tabulated
// factors are bit-identical to the ones it computes.
func twiddles(tw []complex128, wStep complex128) {
	w := complex(1, 0)
	for k := range tw {
		tw[k] = w
		w *= wStep
	}
}

// Len returns the transform length the plan was built for.
func (p *FFTPlan) Len() int { return p.n }

// Transform computes the DFT of x in place, without allocating: X[k] =
// sum_n x[n] * exp(-2*pi*i*k*n/N). The inverse transform is
// unnormalized: callers scale by 1/N for a true inverse. len(x) must
// equal the planned length.
func (p *FFTPlan) Transform(x []complex128, inverse bool) error {
	if len(x) != p.n {
		return fmt.Errorf("dsp: plan length %d, input length %d", p.n, len(x))
	}
	if p.n == 1 {
		return nil
	}
	if p.blue != nil {
		p.blue.transform(x, inverse)
		return nil
	}
	p.radix2(x, inverse)
	return nil
}

// RealTo widens the real signal src into dst and forward-transforms dst
// in place. Both slices must have the planned length; src is left
// untouched.
func (p *FFTPlan) RealTo(dst []complex128, src []float64) error {
	if len(src) != p.n || len(dst) != p.n {
		return fmt.Errorf("dsp: plan length %d, dst %d, src %d", p.n, len(dst), len(src))
	}
	for i, v := range src {
		dst[i] = complex(v, 0)
	}
	return p.Transform(dst, false)
}

// radix2 runs the iterative Cooley-Tukey kernel using the precomputed
// permutation and twiddle tables.
func (p *FFTPlan) radix2(x []complex128, inverse bool) {
	n := p.n
	for i, j := range p.rev {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tws := p.twF
	if inverse {
		tws = p.twI
	}
	for half := 1; half < n; half <<= 1 {
		tw := tws[half-1 : 2*half-1]
		for start := 0; start < n; start += 2 * half {
			lo := x[start : start+half]
			hi := x[start+half : start+2*half]
			for k, w := range tw {
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// transform runs the planned Bluestein convolution with the chirp and
// filter spectrum precomputed.
func (bp *bluesteinPlan) transform(x []complex128, inverse bool) {
	chirp, bhat := bp.chirpF, bp.bhatF
	if inverse {
		chirp, bhat = bp.chirpI, bp.bhatI
	}
	n, m, a := len(chirp), bp.m, bp.a
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	for k := n; k < m; k++ {
		a[k] = 0
	}
	bp.sub.radix2(a, false)
	for i := range a {
		a[i] *= bhat[i]
	}
	bp.sub.radix2(a, true)
	invM := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * invM * chirp[k]
	}
}
