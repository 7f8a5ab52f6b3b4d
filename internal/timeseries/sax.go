package timeseries

import (
	"fmt"
	"math"
	"strings"
)

// MaxAlphabet is the largest supported SAX alphabet size. Breakpoints are
// derived from the standard normal quantiles, which remain well separated
// up to this size for practical purposes.
const MaxAlphabet = 64

// MinAlphabet is the smallest meaningful SAX alphabet size.
const MinAlphabet = 2

// Breakpoints returns the a-1 breakpoints that divide the standard normal
// distribution into a equiprobable regions. Symbol i (0-based) covers the
// interval (bp[i-1], bp[i]] with bp[-1] = -inf and bp[a-1] = +inf.
//
// SAX assumes Z-normalized subsequences are approximately Gaussian, so
// equiprobable normal regions give symbols that occur with equal
// probability (Lin et al. 2003).
func Breakpoints(alphabet int) ([]float64, error) {
	if alphabet < MinAlphabet || alphabet > MaxAlphabet {
		return nil, fmt.Errorf("%w: %d not in [%d, %d]", ErrBadAlphabet, alphabet, MinAlphabet, MaxAlphabet)
	}
	bp := make([]float64, alphabet-1)
	for i := 1; i < alphabet; i++ {
		bp[i-1] = normQuantile(float64(i) / float64(alphabet))
	}
	return bp, nil
}

// normQuantile returns the quantile function (inverse CDF) of the standard
// normal distribution, computed with the Acklam rational approximation
// (relative error < 1.15e-9 across the open unit interval).
func normQuantile(p float64) float64 {
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	}
	// Coefficients for the central and tail rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	return x
}

// SAX maps a time series to a symbolic word. The series is Z-normalized,
// reduced to w PAA segments, and each segment mean is mapped to the symbol
// (0-based integer) of the equiprobable normal region it falls in.
type SAX struct {
	alphabet    int
	breakpoints []float64
}

// NewSAX returns a SAX converter for the given alphabet size.
func NewSAX(alphabet int) (*SAX, error) {
	bp, err := Breakpoints(alphabet)
	if err != nil {
		return nil, err
	}
	return &SAX{alphabet: alphabet, breakpoints: bp}, nil
}

// Symbol maps one (already normalized) value to its symbol in [0, a).
func (s *SAX) Symbol(x float64) int {
	// NaN sorts nowhere useful; clamp it to the middle symbol so corrupt
	// samples do not bias the extremes.
	if math.IsNaN(x) {
		return s.alphabet / 2
	}
	// Symbols cover (bp[i-1], bp[i]], so x's symbol is the index of the
	// first breakpoint >= x: the number of breakpoints below it. Counting
	// over the sorted breakpoints gives the binary search's answer
	// without its data-dependent branches.
	i := 0
	for _, b := range s.breakpoints {
		if b < x {
			i++
		}
	}
	return i
}

// WordOfNormalized converts an already Z-normalized (or otherwise prepared)
// series to symbols without renormalizing or PAA reduction: one symbol per
// sample. The streaming saxanomaly operator uses this form, normalizing
// over its own window.
func (s *SAX) WordOfNormalized(series []float64) []int {
	word := make([]int, len(series))
	for i, x := range series {
		word[i] = s.Symbol(x)
	}
	return word
}

// WordString renders a SAX word using letters starting at 'a' (for
// alphabets up to 26) or as space-separated integers otherwise, matching
// common SAX presentation.
func WordString(word []int, alphabet int) string {
	if alphabet <= 26 {
		var sb strings.Builder
		for _, w := range word {
			if w < 0 {
				w = 0
			}
			if w >= alphabet {
				w = alphabet - 1
			}
			sb.WriteByte(byte('a' + w))
		}
		return sb.String()
	}
	parts := make([]string, len(word))
	for i, w := range word {
		parts[i] = fmt.Sprintf("%d", w)
	}
	return strings.Join(parts, " ")
}
