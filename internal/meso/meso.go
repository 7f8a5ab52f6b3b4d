// Package meso implements MESO, the perceptual-memory system the paper
// uses for classification (Kasten & McKinley, "MESO: Supporting online
// decision making in autonomic computing systems", IEEE TKDE 19(4), 2007).
//
// MESO is an online, incremental variant of leader-follower clustering. A
// novel feature is its use of small agglomerative clusters called
// sensitivity spheres: a sphere aggregates training patterns within a
// sensitivity radius delta of its center. Training either absorbs a
// pattern into the nearest sphere (when it fits within delta) or grows a
// new sphere; delta itself adapts to the data as training progresses.
// Spheres are organized into a partitioning tree so queries do not scan
// every sphere. A trained MESO answers queries with the label of the most
// similar training data.
package meso

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Pattern is one labelled training vector.
type Pattern struct {
	Vector []float64
	Label  string
}

// Growth selects how the sensitivity delta adapts during training.
type Growth int

// Growth policies.
const (
	// GrowthAdaptive sets delta to DeltaFraction times the running mean of
	// nearest-sphere distances observed during training. This tracks the
	// natural scale of the data stream and is the default.
	GrowthAdaptive Growth = iota + 1
	// GrowthFixed keeps delta at FixedDelta for the whole run.
	GrowthFixed
	// GrowthSlowStart behaves like GrowthAdaptive but only after
	// SlowStartCount patterns; before that delta stays at zero so early
	// spheres are small and numerous.
	GrowthSlowStart
)

// String returns the growth policy name.
func (g Growth) String() string {
	switch g {
	case GrowthAdaptive:
		return "adaptive"
	case GrowthFixed:
		return "fixed"
	case GrowthSlowStart:
		return "slow-start"
	default:
		return fmt.Sprintf("growth(%d)", int(g))
	}
}

// Vote selects how a query maps the matched sphere to a label.
type Vote int

// Vote policies.
const (
	// VoteSphereMajority returns the most frequent label among the
	// patterns in the nearest sphere.
	VoteSphereMajority Vote = iota + 1
	// VoteNearestPattern returns the label of the single nearest training
	// pattern within the nearest sphere.
	VoteNearestPattern
)

// Config parameterizes a MESO instance. The zero value selects defaults.
type Config struct {
	// Growth is the delta adaptation policy (default GrowthAdaptive).
	Growth Growth
	// DeltaFraction scales the running mean nearest-sphere distance into
	// the sensitivity delta for the adaptive policies (default 0.6).
	DeltaFraction float64
	// FixedDelta is the sensitivity used by GrowthFixed.
	FixedDelta float64
	// SlowStartCount is the warm-up pattern count for GrowthSlowStart
	// (default 16).
	SlowStartCount int
	// Vote is the query labelling policy (default VoteSphereMajority).
	Vote Vote
	// MaxLeaf is the partitioning tree's leaf capacity in spheres
	// (default 8).
	MaxLeaf int
	// SearchBreadth is the number of child branches explored at each tree
	// level during a query (default 4). Larger values trade speed for
	// exactness; a breadth >= the tree fanout makes search exhaustive.
	SearchBreadth int
	// RebuildEvery rebuilds the tree after this many new spheres since
	// the last build (default 64).
	RebuildEvery int
}

func (c Config) withDefaults() Config {
	if c.Growth == 0 {
		c.Growth = GrowthAdaptive
	}
	if c.DeltaFraction == 0 {
		c.DeltaFraction = 0.6
	}
	if c.SlowStartCount == 0 {
		c.SlowStartCount = 16
	}
	if c.Vote == 0 {
		c.Vote = VoteSphereMajority
	}
	if c.MaxLeaf == 0 {
		c.MaxLeaf = 8
	}
	if c.SearchBreadth == 0 {
		c.SearchBreadth = 4
	}
	if c.RebuildEvery == 0 {
		c.RebuildEvery = 64
	}
	return c
}

// Errors returned by MESO operations.
var (
	ErrEmptyPattern = errors.New("meso: empty pattern vector")
	ErrDimMismatch  = errors.New("meso: pattern dimensionality mismatch")
	ErrUntrained    = errors.New("meso: classifier has no training data")
)

// Sphere is one sensitivity sphere: a small agglomerative cluster of
// similar training patterns.
type Sphere struct {
	center      []float64
	patterns    []Pattern
	labelCounts map[string]int
}

// Size returns the number of patterns aggregated in the sphere.
func (s *Sphere) Size() int { return len(s.patterns) }

// MajorityLabel returns the most frequent label in the sphere and its
// count. Ties break lexicographically so results are deterministic.
func (s *Sphere) MajorityLabel() (string, int) {
	best, bestN := "", -1
	keys := make([]string, 0, len(s.labelCounts))
	for l := range s.labelCounts {
		keys = append(keys, l)
	}
	sort.Strings(keys)
	for _, l := range keys {
		if n := s.labelCounts[l]; n > bestN {
			best, bestN = l, n
		}
	}
	if bestN < 0 {
		return "", 0
	}
	return best, bestN
}

func (s *Sphere) add(p Pattern) {
	s.patterns = append(s.patterns, p)
	s.labelCounts[p.Label]++
	// Incremental centroid update.
	n := float64(len(s.patterns))
	for i, x := range p.Vector {
		s.center[i] += (x - s.center[i]) / n
	}
}

func newSphere(p Pattern) *Sphere {
	c := make([]float64, len(p.Vector))
	copy(c, p.Vector)
	return &Sphere{
		center:      c,
		patterns:    []Pattern{p},
		labelCounts: map[string]int{p.Label: 1},
	}
}

// MESO is an online, incremental classifier. It is not safe for
// concurrent use; wrap with a mutex or use one instance per goroutine.
type MESO struct {
	cfg     Config
	dim     int
	spheres []*Sphere
	root    *treeNode
	builtAt int // len(spheres) when the tree was last rebuilt

	trained  int
	nnDist   welford
	delta    float64
	distEval int // distance computations, for instrumentation
}

// New returns an empty MESO with the given configuration.
func New(cfg Config) *MESO {
	return &MESO{cfg: cfg.withDefaults()}
}

// SphereCount returns the number of sensitivity spheres.
func (m *MESO) SphereCount() int { return len(m.spheres) }

// DistanceEvals returns the cumulative number of center-distance
// computations performed by queries, exposed so benchmarks can contrast
// tree search with linear scans.
func (m *MESO) DistanceEvals() int { return m.distEval }

// Labels returns the distinct labels seen in training, sorted.
func (m *MESO) Labels() []string {
	set := make(map[string]struct{})
	for _, s := range m.spheres {
		for l := range s.labelCounts {
			set[l] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Train folds one labelled pattern into the memory.
func (m *MESO) Train(p Pattern) error {
	if len(p.Vector) == 0 {
		return ErrEmptyPattern
	}
	if m.dim == 0 {
		m.dim = len(p.Vector)
	} else if len(p.Vector) != m.dim {
		return fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(p.Vector), m.dim)
	}
	// Copy the vector so later caller mutations cannot corrupt the memory.
	v := make([]float64, len(p.Vector))
	copy(v, p.Vector)
	p.Vector = v

	m.trained++
	if len(m.spheres) == 0 {
		m.spheres = append(m.spheres, newSphere(p))
		return nil
	}
	best, d2 := m.nearestSphereExact(p.Vector)
	d := math.Sqrt(d2)
	m.nnDist.add(d)
	m.updateDelta()
	if d <= m.delta {
		m.spheres[best].add(p)
	} else {
		m.spheres = append(m.spheres, newSphere(p))
		if len(m.spheres)-m.builtAt >= m.cfg.RebuildEvery {
			m.rebuild()
		}
	}
	return nil
}

func (m *MESO) updateDelta() {
	switch m.cfg.Growth {
	case GrowthFixed:
		m.delta = m.cfg.FixedDelta
	case GrowthSlowStart:
		if m.trained <= m.cfg.SlowStartCount {
			m.delta = 0
			return
		}
		m.delta = m.cfg.DeltaFraction * m.nnDist.mean
	default: // GrowthAdaptive
		m.delta = m.cfg.DeltaFraction * m.nnDist.mean
	}
}

// Result is the answer to a classification query.
type Result struct {
	// Label is the predicted class.
	Label string
	// Distance is the Euclidean distance to the matched sphere's center.
	Distance float64
	// Confidence is the fraction of the matched sphere's patterns that
	// carry the predicted label (1.0 for pure spheres).
	Confidence float64
	// Sphere is the matched sensitivity sphere.
	Sphere *Sphere
}

// Classify returns the label for an unlabelled vector using the
// configured vote policy and tree search breadth.
func (m *MESO) Classify(v []float64) (Result, error) {
	return m.classify(v, false)
}

func (m *MESO) classify(v []float64, exact bool) (Result, error) {
	if len(m.spheres) == 0 {
		return Result{}, ErrUntrained
	}
	if len(v) != m.dim {
		return Result{}, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(v), m.dim)
	}
	var idx int
	var d2 float64
	if exact || m.root == nil {
		idx, d2 = m.nearestSphereExact(v)
	} else {
		idx, d2 = m.nearestSphereTree(v)
	}
	s := m.spheres[idx]
	res := Result{Distance: math.Sqrt(d2), Sphere: s}
	switch m.cfg.Vote {
	case VoteNearestPattern:
		bestD := math.Inf(1)
		for i := range s.patterns {
			if d := sqDist(v, s.patterns[i].Vector); d < bestD {
				bestD = d
				res.Label = s.patterns[i].Label
			}
		}
		res.Confidence = float64(s.labelCounts[res.Label]) / float64(len(s.patterns))
	default: // VoteSphereMajority
		label, n := s.MajorityLabel()
		res.Label = label
		res.Confidence = float64(n) / float64(len(s.patterns))
	}
	return res, nil
}

// nearestSphereExact scans every sphere.
func (m *MESO) nearestSphereExact(v []float64) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for i, s := range m.spheres {
		m.distEval++
		if d := sqDist(v, s.center); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// welford is a minimal running-mean accumulator for nearest-sphere
// distances (the full version lives in internal/timeseries; duplicated
// here to keep meso dependency-free).
type welford struct {
	n    uint64
	mean float64
}

func (w *welford) add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}
