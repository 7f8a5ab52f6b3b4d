package timeseries

import (
	"math"
	"sync"
)

// StreamingZScore scores each new observation against an exponentially
// weighted estimate of the series' recent mean and spread, then folds the
// observation in. Scoring happens BEFORE the update, so a sudden level
// shift is judged against the pre-shift baseline instead of being
// partially absorbed by it — the property that lets the control plane's
// monitor flag a degrading node on the first anomalous heartbeats.
//
// The detector is the streaming counterpart of the offline SAX-bitmap
// AnomalyDetector: cheap enough to run per node per metric on every
// heartbeat, with O(1) state.
type StreamingZScore struct {
	ew     *EWStats
	warmup int
	seen   int
	// MinSigma is an absolute floor on the standard deviation used for
	// scoring (default 0 — only the relative floor applies). Callers set it
	// to the smallest deviation that is meaningful in the series' units, so
	// a perfectly flat baseline (e.g. an always-empty queue) does not turn
	// a one-unit wiggle into an astronomically significant score.
	MinSigma float64
}

// NewStreamingZScore returns a detector with EWMA smoothing factor alpha
// (clamped into (0, 1]; higher tracks faster) that reports warm only
// after warmup observations — scores before that are returned but should
// not be acted on, since the baseline is still forming.
func NewStreamingZScore(alpha float64, warmup int) *StreamingZScore {
	if warmup < 1 {
		warmup = 1
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.1
	}
	ew, _ := NewEWStats(alpha)
	return &StreamingZScore{ew: ew, warmup: warmup}
}

// Push scores x against the current baseline, folds x in, and returns the
// (signed) z-score plus whether the detector had seen enough history for
// the score to be meaningful. The standard deviation is floored at a
// small absolute epsilon plus a fraction of the mean's magnitude (and at
// MinSigma when set), so a series that has been perfectly flat (variance
// zero) does not turn an infinitesimal wiggle into an infinite score;
// scores are clamped to ±1e6.
func (z *StreamingZScore) Push(x float64) (score float64, warm bool) {
	warm = z.seen >= z.warmup
	if z.seen > 0 {
		sigma := z.ew.StdDev()
		floor := 1e-6 + 0.05*math.Abs(z.ew.Mean())
		if floor < z.MinSigma {
			floor = z.MinSigma
		}
		if sigma < floor {
			sigma = floor
		}
		score = (x - z.ew.Mean()) / sigma
		if score > 1e6 {
			score = 1e6
		} else if score < -1e6 {
			score = -1e6
		}
	}
	z.ew.Add(x)
	z.seen++
	return score, warm
}

// ZScoreSet multiplexes StreamingZScore detectors over named series —
// one per (node, metric) pair in the monitor's case — creating each lazily
// on first Push. It is safe for concurrent use.
type ZScoreSet struct {
	mu     sync.Mutex
	alpha  float64
	warmup int
	m      map[string]*StreamingZScore
}

// NewZScoreSet returns an empty set whose detectors are created with the
// given alpha and warmup.
func NewZScoreSet(alpha float64, warmup int) *ZScoreSet {
	return &ZScoreSet{alpha: alpha, warmup: warmup, m: make(map[string]*StreamingZScore)}
}

// PushFloor routes x to the named series' detector, creating it if
// needed. A positive minSigma sets an absolute sigma floor for this
// series (see StreamingZScore.MinSigma); the floor sticks to the
// detector, so later calls with minSigma 0 keep it.
func (s *ZScoreSet) PushFloor(name string, x, minSigma float64) (score float64, warm bool) {
	s.mu.Lock()
	z := s.m[name]
	if z == nil {
		z = NewStreamingZScore(s.alpha, s.warmup)
		s.m[name] = z
	}
	if minSigma > 0 {
		z.MinSigma = minSigma
	}
	score, warm = z.Push(x)
	s.mu.Unlock()
	return score, warm
}

// Forget drops every series whose name has the given prefix — used when a
// node leaves the cluster so a replacement under the same name starts
// with a fresh baseline.
func (s *ZScoreSet) Forget(prefix string) {
	s.mu.Lock()
	for name := range s.m {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			delete(s.m, name)
		}
	}
	s.mu.Unlock()
}
