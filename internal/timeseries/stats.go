// Package timeseries implements the time-series representations used by
// the ensemble-extraction pipeline: Z-normalization, piecewise aggregate
// approximation (PAA), symbolic aggregate approximation (SAX), SAX bitmaps
// and the bitmap-distance anomaly score, plus supporting moving-window and
// incremental statistics.
//
// The representations follow Keogh et al. (PAA), Lin et al. (SAX) and
// Kumar et al. (time-series bitmaps) as used in Kasten, McKinley & Gage,
// "Automated Ensemble Extraction and Analysis of Acoustic Data Streams"
// (DEPSA/ICDCS 2007).
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// Errors shared across the package.
var (
	ErrEmptyInput  = errors.New("timeseries: empty input")
	ErrBadSegments = errors.New("timeseries: segment count must be in [1, len(series)]")
	ErrBadAlphabet = errors.New("timeseries: alphabet size out of range")
	ErrBadWindow   = errors.New("timeseries: window size must be positive")
)

// Mean returns the arithmetic mean of v. It returns 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v (dividing by n, matching
// the Z-normalization convention in the SAX literature). It returns 0 for
// slices shorter than 1.
func Variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	mu := Mean(v)
	var s float64
	for _, x := range v {
		d := x - mu
		s += d * d
	}
	return s / float64(len(v))
}

// StdDev returns the population standard deviation of v.
func StdDev(v []float64) float64 { return math.Sqrt(Variance(v)) }

// ZNormalize returns a Z-normalized copy of v: the mean is subtracted and
// each element divided by the standard deviation, so the result has mean 0
// and unit variance. Series with near-zero variance (below eps) are
// returned as all zeros rather than amplifying noise — the convention used
// for flat subsequences in the SAX literature.
func ZNormalize(v []float64) []float64 {
	out := make([]float64, len(v))
	ZNormalizeInto(out, v)
	return out
}

// zNormEps is the variance floor below which a window is considered flat.
const zNormEps = 1e-12

// ZNormalizeInto Z-normalizes src into dst, which must have the same
// length. dst and src may alias.
func ZNormalizeInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("timeseries: ZNormalizeInto: length mismatch")
	}
	if len(src) == 0 {
		return
	}
	mu := Mean(src)
	sigma := StdDev(src)
	if sigma < zNormEps {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	inv := 1 / sigma
	for i, x := range src {
		dst[i] = (x - mu) * inv
	}
}

// Welford maintains running mean and variance using Welford's online
// algorithm. The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean (0 if no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Reset clears the accumulator.
func (w *Welford) Reset() { *w = Welford{} }

// MovingAverage computes a streaming mean over a fixed-size window. The
// zero value is unusable; construct with NewMovingAverage.
type MovingAverage struct {
	buf  []float64
	head int
	full bool
	sum  float64
}

// NewMovingAverage returns a moving average with the given window size.
func NewMovingAverage(window int) (*MovingAverage, error) {
	if window <= 0 {
		return nil, ErrBadWindow
	}
	return &MovingAverage{buf: make([]float64, window)}, nil
}

// Push adds one value and returns the mean over the last min(window, count)
// values.
func (m *MovingAverage) Push(x float64) float64 {
	if m.full {
		m.sum -= m.buf[m.head]
	}
	m.buf[m.head] = x
	m.sum += x
	m.head++
	if m.head == len(m.buf) {
		m.head = 0
		m.full = true
	}
	return m.Mean()
}

// Mean returns the current windowed mean without adding a value.
func (m *MovingAverage) Mean() float64 {
	n := m.Count()
	if n == 0 {
		return 0
	}
	return m.sum / float64(n)
}

// Count returns the number of values currently in the window.
func (m *MovingAverage) Count() int {
	if m.full {
		return len(m.buf)
	}
	return m.head
}

// Reset empties the window.
func (m *MovingAverage) Reset() {
	m.head = 0
	m.full = false
	m.sum = 0
	for i := range m.buf {
		m.buf[i] = 0
	}
}

// EWStats maintains an exponentially weighted mean and variance: newer
// observations dominate with time constant 1/alpha observations. Unlike
// Welford it forgets, so a baseline estimate polluted by early outliers
// recovers. The zero value is unusable; construct with NewEWStats.
type EWStats struct {
	alpha float64
	n     uint64
	mean  float64
	vari  float64
}

// NewEWStats returns an accumulator with the given smoothing factor in
// (0, 1]; smaller alpha means a longer memory.
func NewEWStats(alpha float64) (*EWStats, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("timeseries: EW alpha %v not in (0, 1]", alpha)
	}
	return &EWStats{alpha: alpha}, nil
}

// Add folds in one observation. The first observation initializes the
// mean directly so early estimates are not biased toward zero.
func (e *EWStats) Add(x float64) {
	e.n++
	if e.n == 1 {
		e.mean = x
		return
	}
	d := x - e.mean
	e.mean += e.alpha * d
	e.vari = (1 - e.alpha) * (e.vari + e.alpha*d*d)
}

// Count returns the number of observations.
func (e *EWStats) Count() uint64 { return e.n }

// Mean returns the weighted mean.
func (e *EWStats) Mean() float64 { return e.mean }

// StdDev returns the weighted standard deviation.
func (e *EWStats) StdDev() float64 { return math.Sqrt(e.vari) }

// Reset clears the accumulator, keeping alpha.
func (e *EWStats) Reset() {
	e.n = 0
	e.mean = 0
	e.vari = 0
}
