package timeseries

import "fmt"

// Bitmap is a SAX time-series bitmap (Kumar et al. 2005): an
// n-dimensional matrix of counts of symbolic subsequences ("grams") of
// length n over an alphabet of size a, flattened to a slice of a^n cells.
// Frequencies are counts divided by the total number of grams, and two
// bitmaps are compared by Euclidean distance between their frequency
// matrices.
type Bitmap struct {
	alphabet int
	gram     int
	counts   []int
	total    int
}

// NewBitmap returns an empty bitmap for subsequences of length gram over
// the given alphabet. gram must be in [1, 4]: a^4 cells is the largest
// matrix that stays cache-friendly for streaming use.
func NewBitmap(alphabet, gram int) (*Bitmap, error) {
	if alphabet < MinAlphabet || alphabet > MaxAlphabet {
		return nil, fmt.Errorf("%w: %d", ErrBadAlphabet, alphabet)
	}
	if gram < 1 || gram > 4 {
		return nil, fmt.Errorf("timeseries: gram length %d not in [1, 4]", gram)
	}
	cells := 1
	for i := 0; i < gram; i++ {
		cells *= alphabet
	}
	return &Bitmap{alphabet: alphabet, gram: gram, counts: make([]int, cells)}, nil
}

// Reset clears all counts.
func (b *Bitmap) Reset() {
	for i := range b.counts {
		b.counts[i] = 0
	}
	b.total = 0
}
