package timeseries

import (
	"fmt"
	"math"
)

// AnomalyConfig parameterizes the streaming SAX-bitmap anomaly detector.
// The defaults reproduce the settings the paper used for environmental
// acoustics: alphabet 8, anomaly window 100 samples, bigram bitmaps.
type AnomalyConfig struct {
	// Alphabet is the SAX alphabet size (paper: 8).
	Alphabet int
	// Window is the number of samples per bitmap; the detector compares a
	// "lag" bitmap over samples [t-2W+1, t-W] with a "lead" bitmap over
	// [t-W+1, t] (paper: 100).
	Window int
	// Gram is the symbolic subsequence length counted in each bitmap
	// (Kumar et al. use 1-3 symbols; default 1 — see DefaultAnomalyConfig).
	Gram int
}

// DefaultAnomalyConfig returns the paper's parameters: alphabet 8 and a
// 100-sample anomaly window. Unigram bitmaps are the default because the
// 100-sample window supports only ~100 gram observations: 8 cells give a
// stable frequency estimate where 64 bigram cells drown the signal in
// sampling noise (see BenchmarkAblationSAXParams for the sweep).
func DefaultAnomalyConfig() AnomalyConfig {
	return AnomalyConfig{Alphabet: 8, Window: 100, Gram: 1}
}

func (c *AnomalyConfig) validate() error {
	if c.Alphabet == 0 {
		c.Alphabet = 8
	}
	if c.Window == 0 {
		c.Window = 100
	}
	if c.Gram == 0 {
		c.Gram = 1
	}
	if c.Window < 0 {
		return ErrBadWindow
	}
	if c.Gram > c.Window {
		return fmt.Errorf("timeseries: gram %d exceeds window %d", c.Gram, c.Window)
	}
	return nil
}

// AnomalyDetector computes a streaming SAX-bitmap anomaly score: each
// incoming sample is symbolized against running signal statistics, and the
// score at time t is the Euclidean distance between the bitmap of the most
// recent W symbols (the "lead" window) and the bitmap of the W symbols
// before those (the "lag" window). A distinct change in signal behaviour —
// the onset of a bird vocalization over steady ambient noise — drives the
// two bitmaps apart.
//
// Both bitmaps are maintained incrementally. Once warm, a Push costs one
// running-statistics update, a comparison against each of the a-1 SAX
// breakpoints, four cell updates of g symbols each and one a^g-cell
// distance pass — constant work independent of the window size, and no
// allocation. A single scan of the time series therefore suffices, which is
// what makes ensemble extraction viable on unbounded streams. Every score
// is bit-identical to building both bitmaps from scratch and calling
// BitmapDistance: the incremental path performs the same floating-point
// operations in the same order.
//
// AnomalyDetector is not safe for concurrent use.
type AnomalyDetector struct {
	cfg  AnomalyConfig
	sax  *SAX
	lag  *Bitmap
	lead *Bitmap

	// ring holds at least the last 2W+1 symbols so the gram departing the
	// lag window (whose oldest symbol has age 2W) is still addressable.
	// Its length is a power of two, so a position is a count&mask.
	ring []uint8
	mask uint
	seen uint64 // symbols written since Reset; the next goes to seen&mask

	// inv is 1/(W-g+1), the reciprocal of both bitmaps' constant total
	// once warm — what BitmapDistance would compute per call.
	inv  float64
	norm Welford
}

// NewAnomalyDetector returns a detector with the given configuration.
func NewAnomalyDetector(cfg AnomalyConfig) (*AnomalyDetector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sax, err := NewSAX(cfg.Alphabet)
	if err != nil {
		return nil, err
	}
	lag, err := NewBitmap(cfg.Alphabet, cfg.Gram)
	if err != nil {
		return nil, err
	}
	lead, _ := NewBitmap(cfg.Alphabet, cfg.Gram)
	size := 1
	for size < 2*cfg.Window+1 {
		size <<= 1
	}
	return &AnomalyDetector{
		cfg:  cfg,
		sax:  sax,
		lag:  lag,
		lead: lead,
		ring: make([]uint8, size),
		mask: uint(size - 1),
		inv:  1 / float64(cfg.Window-cfg.Gram+1),
	}, nil
}

// Reset returns the detector to its just-constructed state, keeping its
// configuration and storage.
func (d *AnomalyDetector) Reset() {
	d.lag.Reset()
	d.lead.Reset()
	d.seen = 0
	d.norm.Reset()
}

// cellAt returns the bitmap cell of the gram whose newest symbol has the
// given age (age 0 is the newest symbol): the gram's symbols read oldest
// first as base-a digits, as Bitmap.index flattens them. Valid for
// age+g <= min(seen, len(ring)).
func (d *AnomalyDetector) cellAt(age uint) int {
	g := uint(d.cfg.Gram)
	oldest := uint(d.seen) - age - g // ring position of the gram's first symbol
	cell := 0
	for k := uint(0); k < g; k++ {
		cell = cell*d.cfg.Alphabet + int(d.ring[(oldest+k)&d.mask])
	}
	return cell
}

// Push feeds one sample and returns the current anomaly score. ok is false
// until the detector is warm. NaN and infinite samples are treated as the
// running mean (symbolized mid-scale) so corrupt readings do not poison
// the window.
func (d *AnomalyDetector) Push(x float64) (score float64, ok bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		x = d.norm.Mean()
	}
	d.norm.Add(x)
	sigma := d.norm.StdDev()
	var z float64
	if sigma >= zNormEps {
		z = (x - d.norm.Mean()) / sigma
	}
	d.ring[uint(d.seen)&d.mask] = uint8(d.sax.Symbol(z))
	d.seen++

	switch warm := uint64(2 * d.cfg.Window); {
	case d.seen < warm:
		return 0, false
	case d.seen == warm:
		d.rebuild()
	default:
		d.slide()
	}
	// BitmapDistance(lag, lead) with its per-call reciprocals hoisted:
	// the same operations in the same order, so the same bits.
	lag, lead, inv := d.lag.counts, d.lead.counts, d.inv
	lead = lead[:len(lag)]
	var sum float64
	for i, c := range lag {
		diff := float64(c)*inv - float64(lead[i])*inv
		sum += diff * diff
	}
	return math.Sqrt(sum), true
}

// slide moves both windows on by the symbol just written. In ages relative
// to it (age 0), the lead window covers ages [0, W-1] and contains grams
// at ages [0, W-g]; the lag window covers [W, 2W-1] with grams at ages
// [W, 2W-g]. Each bitmap gains one gram and loses one, so both totals stay
// W-g+1.
func (d *AnomalyDetector) slide() {
	w, g := uint(d.cfg.Window), uint(d.cfg.Gram)
	d.lead.counts[d.cellAt(0)]++      // entered lead
	d.lead.counts[d.cellAt(w-g+1)]--  // left lead
	d.lag.counts[d.cellAt(w)]++       // entered lag
	d.lag.counts[d.cellAt(2*w-g+1)]-- // left lag
}

// rebuild fills both bitmaps from the ring at first full occupancy; until
// then they are untouched, so they start empty.
func (d *AnomalyDetector) rebuild() {
	w, g := uint(d.cfg.Window), uint(d.cfg.Gram)
	for a := uint(0); a+g <= w; a++ {
		d.lead.counts[d.cellAt(a)]++
	}
	for a := w; a+g <= 2*w; a++ {
		d.lag.counts[d.cellAt(a)]++
	}
	d.lead.total = int(w - g + 1)
	d.lag.total = int(w - g + 1)
}
