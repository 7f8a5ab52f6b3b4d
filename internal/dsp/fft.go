// Package dsp provides the signal-processing substrate for the acoustic
// pipeline: planned discrete Fourier transforms (FFTPlan: radix-2
// Cooley-Tukey with a Bluestein fallback for arbitrary lengths), window
// functions, magnitude spectra and spectrogram construction, plus small
// synthesis primitives used by the synthetic workload generator. The
// plan is the only transform kernel; its tests compare it against a
// one-shot reference FFT and a direct O(n²) DFT that live in the test
// files.
package dsp

import (
	"errors"
	"math"
)

// ErrEmptyInput is returned for zero-length transforms.
var ErrEmptyInput = errors.New("dsp: empty input")

// MagnitudesInto writes |x[k]| into dst[k], the "cabs" stage of the
// paper's pipeline. dst and x must have the same length.
func MagnitudesInto(dst []float64, x []complex128) {
	_ = dst[:len(x)]
	for i, c := range x {
		dst[i] = math.Hypot(real(c), imag(c))
	}
}
