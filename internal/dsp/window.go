package dsp

import (
	"fmt"
	"math"
)

// WindowFunc identifies a tapering window applied to a record before the
// DFT to reduce spectral leakage at record edges.
type WindowFunc int

// Supported windows. The paper's pipeline uses the Welch window.
const (
	WindowRect WindowFunc = iota + 1
	WindowWelch
	WindowHann
	WindowHamming
	WindowBlackman
)

// String returns the window name.
func (w WindowFunc) String() string {
	switch w {
	case WindowRect:
		return "rect"
	case WindowWelch:
		return "welch"
	case WindowHann:
		return "hann"
	case WindowHamming:
		return "hamming"
	case WindowBlackman:
		return "blackman"
	default:
		return fmt.Sprintf("window(%d)", int(w))
	}
}

// Coefficients returns the n window coefficients.
func (w WindowFunc) Coefficients(n int) ([]float64, error) {
	if n <= 0 {
		return nil, ErrEmptyInput
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out, nil
	}
	nf := float64(n - 1)
	for i := 0; i < n; i++ {
		t := float64(i)
		switch w {
		case WindowRect:
			out[i] = 1
		case WindowWelch:
			// Welch: 1 - ((i - N/2) / (N/2))^2, parabolic taper.
			d := (t - nf/2) / (nf / 2)
			out[i] = 1 - d*d
		case WindowHann:
			out[i] = 0.5 * (1 - math.Cos(2*math.Pi*t/nf))
		case WindowHamming:
			out[i] = 0.54 - 0.46*math.Cos(2*math.Pi*t/nf)
		case WindowBlackman:
			out[i] = 0.42 - 0.5*math.Cos(2*math.Pi*t/nf) + 0.08*math.Cos(4*math.Pi*t/nf)
		default:
			return nil, fmt.Errorf("dsp: unknown window %d", int(w))
		}
	}
	return out, nil
}

// Window is a precomputed window for repeated application to records of a
// fixed size, as the welchwindow operator does.
type Window struct {
	coef []float64
}

// NewWindow precomputes an n-point window.
func NewWindow(fn WindowFunc, n int) (*Window, error) {
	coef, err := fn.Coefficients(n)
	if err != nil {
		return nil, err
	}
	return &Window{coef: coef}, nil
}

// Len returns the window length.
func (w *Window) Len() int { return len(w.coef) }

// ApplyTo multiplies dst element-wise by the window. len(dst) must equal
// Len().
func (w *Window) ApplyTo(dst []float64) error {
	if len(dst) != len(w.coef) {
		return fmt.Errorf("dsp: window length %d, record length %d", len(w.coef), len(dst))
	}
	for i := range dst {
		dst[i] *= w.coef[i]
	}
	return nil
}
