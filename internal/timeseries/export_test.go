// The from-scratch SAX-bitmap reference the streaming AnomalyDetector is
// checked against, and accessors tests use to observe state. No program
// links them.

package timeseries

import (
	"fmt"
	"math"
)

// Alphabet returns the alphabet size.
func (b *Bitmap) Alphabet() int { return b.alphabet }

// Gram returns the subsequence length.
func (b *Bitmap) Gram() int { return b.gram }

// Cells returns the number of matrix cells (alphabet^gram).
func (b *Bitmap) Cells() int { return len(b.counts) }

// Total returns the number of grams currently counted.
func (b *Bitmap) Total() int { return b.total }

// index flattens a gram to its cell index. Symbols outside [0, a) are
// clamped.
func (b *Bitmap) index(gram []int) int {
	idx := 0
	for _, s := range gram {
		if s < 0 {
			s = 0
		} else if s >= b.alphabet {
			s = b.alphabet - 1
		}
		idx = idx*b.alphabet + s
	}
	return idx
}

// Inc counts one occurrence of gram. len(gram) must equal Gram().
func (b *Bitmap) Inc(gram []int) {
	if len(gram) != b.gram {
		panic(fmt.Sprintf("timeseries: Bitmap.Inc: gram length %d, want %d", len(gram), b.gram))
	}
	b.counts[b.index(gram)]++
	b.total++
}

// Dec removes one occurrence of gram. Decrementing an empty cell panics:
// it always indicates a bookkeeping bug in the caller's sliding window.
func (b *Bitmap) Dec(gram []int) {
	if len(gram) != b.gram {
		panic(fmt.Sprintf("timeseries: Bitmap.Dec: gram length %d, want %d", len(gram), b.gram))
	}
	i := b.index(gram)
	if b.counts[i] == 0 || b.total == 0 {
		panic("timeseries: Bitmap.Dec: cell underflow")
	}
	b.counts[i]--
	b.total--
}

// AddWord counts every gram of the symbolic word.
func (b *Bitmap) AddWord(word []int) {
	for i := 0; i+b.gram <= len(word); i++ {
		b.Inc(word[i : i+b.gram])
	}
}

// Frequency returns the relative frequency of the cell for gram.
func (b *Bitmap) Frequency(gram []int) float64 {
	if b.total == 0 {
		return 0
	}
	return float64(b.counts[b.index(gram)]) / float64(b.total)
}

// Frequencies returns the full frequency matrix, flattened row-major.
func (b *Bitmap) Frequencies() []float64 {
	out := make([]float64, len(b.counts))
	if b.total == 0 {
		return out
	}
	inv := 1 / float64(b.total)
	for i, c := range b.counts {
		out[i] = float64(c) * inv
	}
	return out
}

// Clone returns a deep copy of the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{alphabet: b.alphabet, gram: b.gram, total: b.total}
	c.counts = make([]int, len(b.counts))
	copy(c.counts, b.counts)
	return c
}

// BitmapDistance returns the Euclidean distance between the frequency
// matrices of two bitmaps, the anomaly measure from Kumar et al. that
// AnomalyDetector maintains incrementally. The bitmaps must have identical
// shape.
func BitmapDistance(x, y *Bitmap) (float64, error) {
	if x.alphabet != y.alphabet || x.gram != y.gram {
		return 0, fmt.Errorf("timeseries: bitmap shape mismatch: (%d,%d) vs (%d,%d)",
			x.alphabet, x.gram, y.alphabet, y.gram)
	}
	var sum float64
	invX, invY := 0.0, 0.0
	if x.total > 0 {
		invX = 1 / float64(x.total)
	}
	if y.total > 0 {
		invY = 1 / float64(y.total)
	}
	for i := range x.counts {
		d := float64(x.counts[i])*invX - float64(y.counts[i])*invY
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// Word converts series to a SAX word of length w, Z-normalizing first.
func (s *SAX) Word(series []float64, w int) ([]int, error) {
	if len(series) == 0 {
		return nil, ErrEmptyInput
	}
	norm := ZNormalize(series)
	paa, err := PAA(norm, w)
	if err != nil {
		return nil, err
	}
	word := make([]int, len(paa))
	for i, x := range paa {
		word[i] = s.Symbol(x)
	}
	return word, nil
}

// MinDist returns the lower-bounding distance between two SAX words of
// equal length produced from series of original length n (Lin et al.). It
// is zero for adjacent symbols and uses breakpoint gaps otherwise.
func (s *SAX) MinDist(a, b []int, n int) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("timeseries: MinDist: word lengths %d != %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, ErrEmptyInput
	}
	var sum float64
	for i := range a {
		d := s.symbolDist(a[i], b[i])
		sum += d * d
	}
	scale := math.Sqrt(float64(n) / float64(len(a)))
	return scale * math.Sqrt(sum), nil
}

// symbolDist is the dist() lookup from the SAX paper: zero for symbols at
// distance <= 1, otherwise the gap between the breakpoints bounding them.
func (s *SAX) symbolDist(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	if j-i <= 1 {
		return 0
	}
	return s.breakpoints[j-1] - s.breakpoints[i]
}

// Warm reports whether the detector has seen enough samples (2*Window) to
// produce scores.
func (d *AnomalyDetector) Warm() bool { return d.seen >= uint64(2*d.cfg.Window) }

// Scores runs the detector over a whole series and returns one score per
// sample; samples before warm-up score 0. It is a convenience for batch
// analysis and testing — streaming callers should use Push.
func Scores(series []float64, cfg AnomalyConfig) ([]float64, error) {
	d, err := NewAnomalyDetector(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(series))
	for i, x := range series {
		if s, ok := d.Push(x); ok {
			out[i] = s
		}
	}
	return out, nil
}
