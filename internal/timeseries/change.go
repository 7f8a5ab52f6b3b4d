package timeseries

import "math"

// Streaming change-point detectors.
//
// StreamingZScore flags individual outliers against an EWMA baseline;
// the detectors here flag *sustained* shifts. CUSUM accumulates
// standardized deviations beyond a slack band, so a persistent small
// drift crosses the decision threshold even though no single sample
// would. Page-Hinkley tracks the gap between the cumulative deviation
// and its running minimum, the classic sequential test for an upward
// mean shift. Both score before folding the sample into their
// baseline — like StreamingZScore — so the shift itself cannot drag
// the baseline along and mask the change.

// CUSUM is a two-sided cumulative-sum change detector over an
// exponentially weighted baseline. Each sample is standardized against
// the running mean and deviation; the positive and negative sums
// accumulate standardized residuals beyond the slack K and an alarm
// fires when either exceeds the decision threshold H. After an alarm
// the sums reset (the baseline is kept), so one shift yields one alarm
// rather than an alarm per sample.
//
// The zero value is unusable; construct with NewCUSUM.
type CUSUM struct {
	ew     *EWStats
	warmup uint64
	seen   uint64
	pos    float64
	neg    float64

	// K is the slack, in standard deviations, subtracted from each
	// standardized residual before it accumulates: deviations inside
	// +/-K sigma are treated as noise. Default 0.5.
	K float64
	// H is the decision threshold, in accumulated standard deviations.
	// Default 5.
	H float64
	// MinSigma is an absolute floor on the deviation used for
	// standardization, so a flat baseline (sigma ~ 0) does not turn
	// measurement jitter into an alarm. Zero means no floor beyond the
	// relative one.
	MinSigma float64
}

// NewCUSUM returns a two-sided CUSUM detector whose baseline is an
// exponentially weighted mean/variance with the given smoothing factor.
// No alarm fires during the first warmup samples.
func NewCUSUM(alpha float64, warmup int) (*CUSUM, error) {
	ew, err := NewEWStats(alpha)
	if err != nil {
		return nil, err
	}
	if warmup < 0 {
		warmup = 0
	}
	return &CUSUM{ew: ew, warmup: uint64(warmup), K: 0.5, H: 5}, nil
}

// sigmaFloor returns the standardization deviation with the relative
// and absolute floors applied (shared by CUSUM and PageHinkley).
func sigmaFloor(sigma, mean, minSigma float64) float64 {
	if floor := 1e-6 + 0.05*math.Abs(mean); sigma < floor {
		sigma = floor
	}
	if sigma < minSigma {
		sigma = minSigma
	}
	return sigma
}

// Push scores one sample and then folds it into the baseline. It
// returns the dominant cumulative sum (positive when the stream runs
// above baseline, negative below) and whether the detector is warm and
// the decision threshold was crossed. On an alarm the sums reset.
func (c *CUSUM) Push(x float64) (stat float64, alarm bool) {
	warm := c.seen >= c.warmup
	if c.seen > 0 && warm {
		sigma := sigmaFloor(c.ew.StdDev(), c.ew.Mean(), c.MinSigma)
		z := (x - c.ew.Mean()) / sigma
		c.pos = math.Max(0, c.pos+z-c.K)
		c.neg = math.Max(0, c.neg-z-c.K)
		if c.pos >= c.H || c.neg >= c.H {
			alarm = true
		}
	}
	stat = c.pos
	if c.neg > c.pos {
		stat = -c.neg
	}
	c.seen++
	c.ew.Add(x)
	if alarm {
		c.pos, c.neg = 0, 0
	}
	return stat, alarm
}

// Reset clears the baseline and both sums, keeping the configuration.
func (c *CUSUM) Reset() {
	c.ew.Reset()
	c.seen = 0
	c.pos, c.neg = 0, 0
}

// PageHinkley is the Page-Hinkley sequential test for an upward mean
// shift: it accumulates the deviation of each sample from the running
// mean (minus a drift allowance Delta) and alarms when the accumulation
// rises more than Lambda above its historical minimum. Samples are
// standardized first, so Delta and Lambda are in sigma units and one
// configuration serves metrics of any scale.
//
// The zero value is unusable; construct with NewPageHinkley.
type PageHinkley struct {
	ew     *EWStats
	warmup uint64
	seen   uint64
	cum    float64 // m_T: cumulative standardized deviation minus drift
	min    float64 // M_T: historical minimum of cum

	// Delta is the drift allowance per sample, in standard deviations;
	// deviations below it never accumulate. Default 0.25.
	Delta float64
	// Lambda is the alarm threshold on cum - min, in accumulated
	// standard deviations. Default 8.
	Lambda float64
	// MinSigma is an absolute floor on the standardization deviation,
	// as in CUSUM.
	MinSigma float64
}

// NewPageHinkley returns a Page-Hinkley detector over an exponentially
// weighted baseline with the given smoothing factor. No alarm fires
// during the first warmup samples.
func NewPageHinkley(alpha float64, warmup int) (*PageHinkley, error) {
	ew, err := NewEWStats(alpha)
	if err != nil {
		return nil, err
	}
	if warmup < 0 {
		warmup = 0
	}
	return &PageHinkley{ew: ew, warmup: uint64(warmup), Delta: 0.25, Lambda: 8}, nil
}

// Push scores one sample and then folds it into the baseline. It
// returns the current test statistic (cum - min, >= 0) and whether the
// detector is warm and the statistic crossed Lambda. On an alarm the
// accumulator resets (the baseline is kept).
func (p *PageHinkley) Push(x float64) (stat float64, alarm bool) {
	warm := p.seen >= p.warmup
	if p.seen > 0 && warm {
		sigma := sigmaFloor(p.ew.StdDev(), p.ew.Mean(), p.MinSigma)
		z := (x - p.ew.Mean()) / sigma
		p.cum += z - p.Delta
		if p.cum < p.min {
			p.min = p.cum
		}
		stat = p.cum - p.min
		if stat >= p.Lambda {
			alarm = true
		}
	}
	p.seen++
	p.ew.Add(x)
	if alarm {
		p.cum, p.min = 0, 0
	}
	return stat, alarm
}

// Reset clears the baseline and the accumulator, keeping the
// configuration.
func (p *PageHinkley) Reset() {
	p.ew.Reset()
	p.seen = 0
	p.cum, p.min = 0, 0
}
