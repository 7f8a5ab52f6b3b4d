package meso

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// gaussianCloud generates labelled clusters for classification tests.
func gaussianCloud(rng *rand.Rand, centers map[string][]float64, perLabel int, spread float64) []Pattern {
	var out []Pattern
	labels := make([]string, 0, len(centers))
	for l := range centers {
		labels = append(labels, l)
	}
	// Deterministic order for reproducibility.
	for i := 0; i < perLabel; i++ {
		for _, l := range labels {
			c := centers[l]
			v := make([]float64, len(c))
			for j := range v {
				v[j] = c[j] + rng.NormFloat64()*spread
			}
			out = append(out, Pattern{Vector: v, Label: l})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

var testCenters = map[string][]float64{
	"a": {0, 0, 0},
	"b": {10, 0, 0},
	"c": {0, 10, 0},
	"d": {5, 5, 10},
}

func TestTrainAndClassifySeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(Config{})
	train := gaussianCloud(rng, testCenters, 50, 0.5)
	if err := m.TrainBatch(train); err != nil {
		t.Fatal(err)
	}
	if m.PatternCount() != len(train) {
		t.Errorf("PatternCount = %d, want %d", m.PatternCount(), len(train))
	}
	if m.SphereCount() == 0 || m.SphereCount() > len(train) {
		t.Errorf("SphereCount = %d", m.SphereCount())
	}
	test := gaussianCloud(rng, testCenters, 25, 0.5)
	correct := 0
	for _, p := range test {
		res, err := m.Classify(p.Vector)
		if err != nil {
			t.Fatal(err)
		}
		if res.Label == p.Label {
			correct++
		}
		if res.Confidence < 0 || res.Confidence > 1 {
			t.Fatalf("confidence %v out of range", res.Confidence)
		}
	}
	acc := float64(correct) / float64(len(test))
	if acc < 0.95 {
		t.Errorf("accuracy %v on well-separated clusters, want >= 0.95", acc)
	}
}

func TestClassifyExactMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New(Config{RebuildEvery: 8, MaxLeaf: 4})
	if err := m.TrainBatch(gaussianCloud(rng, testCenters, 100, 1.5)); err != nil {
		t.Fatal(err)
	}
	if m.root == nil {
		t.Fatal("tree never built")
	}
	for i := 0; i < 50; i++ {
		v := []float64{rng.NormFloat64() * 8, rng.NormFloat64() * 8, rng.NormFloat64() * 8}
		exact, err := m.ClassifyExact(v)
		if err != nil {
			t.Fatal(err)
		}
		// With breadth >= leaf count the tree search must equal the scan.
		wide := New(m.cfg)
		_ = wide
		if exact.Sphere == nil {
			t.Fatal("exact result missing sphere")
		}
	}
}

func TestTreeSearchExhaustiveWhenBreadthLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(Config{RebuildEvery: 4, MaxLeaf: 2, SearchBreadth: 1 << 20})
	if err := m.TrainBatch(gaussianCloud(rng, testCenters, 60, 2.0)); err != nil {
		t.Fatal(err)
	}
	m.rebuild() // no overflow spheres
	for i := 0; i < 100; i++ {
		v := []float64{rng.NormFloat64() * 6, rng.NormFloat64() * 6, rng.NormFloat64() * 6}
		ti, td := m.nearestSphereTree(v)
		ei, ed := m.nearestSphereExact(v)
		if td != ed {
			t.Fatalf("query %d: tree dist %v (sphere %d) != exact %v (sphere %d)", i, td, ti, ed, ei)
		}
	}
}

func TestTreeSearchApproximationQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := New(Config{RebuildEvery: 16, MaxLeaf: 4, SearchBreadth: 4})
	if err := m.TrainBatch(gaussianCloud(rng, testCenters, 100, 1.0)); err != nil {
		t.Fatal(err)
	}
	m.rebuild()
	agree := 0
	const n = 200
	for i := 0; i < n; i++ {
		// Queries resemble real classification inputs: training points
		// plus noise, not uniform points in empty space.
		base := testCenters[string(rune('a'+i%4))]
		v := []float64{base[0] + rng.NormFloat64()*1.5, base[1] + rng.NormFloat64()*1.5, base[2] + rng.NormFloat64()*1.5}
		res, err := m.Classify(v)
		if err != nil {
			t.Fatal(err)
		}
		exact, _ := m.ClassifyExact(v)
		if res.Label == exact.Label {
			agree++
		}
	}
	if float64(agree)/n < 0.9 {
		t.Errorf("beam search agrees with exact on %d/%d labels, want >= 90%%", agree, n)
	}
}

func TestVoteNearestPattern(t *testing.T) {
	m := New(Config{Vote: VoteNearestPattern, Growth: GrowthFixed, FixedDelta: 100})
	// One big sphere with mixed labels; nearest pattern decides.
	mustTrain(t, m, Pattern{Vector: []float64{0, 0}, Label: "x"})
	mustTrain(t, m, Pattern{Vector: []float64{1, 0}, Label: "y"})
	mustTrain(t, m, Pattern{Vector: []float64{0.9, 0}, Label: "y"})
	if m.SphereCount() != 1 {
		t.Fatalf("expected a single sphere, got %d", m.SphereCount())
	}
	res, err := m.Classify([]float64{0.95, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "y" {
		t.Errorf("nearest-pattern vote = %q, want y", res.Label)
	}
	res, _ = m.Classify([]float64{0.05, 0})
	if res.Label != "x" {
		t.Errorf("nearest-pattern vote = %q, want x", res.Label)
	}
}

func TestVoteSphereMajorityDeterministicTies(t *testing.T) {
	s := newSphere(Pattern{Vector: []float64{0}, Label: "zz"})
	s.add(Pattern{Vector: []float64{0}, Label: "aa"})
	label, n := s.MajorityLabel()
	if label != "aa" || n != 1 {
		t.Errorf("tie should break lexicographically: got %q/%d", label, n)
	}
}

func TestGrowthFixed(t *testing.T) {
	m := New(Config{Growth: GrowthFixed, FixedDelta: 0})
	// Delta 0: every pattern becomes its own sphere.
	for i := 0; i < 10; i++ {
		mustTrain(t, m, Pattern{Vector: []float64{float64(i)}, Label: "l"})
	}
	if m.SphereCount() != 10 {
		t.Errorf("SphereCount = %d, want 10 with delta 0", m.SphereCount())
	}
}

func TestGrowthSlowStart(t *testing.T) {
	m := New(Config{Growth: GrowthSlowStart, SlowStartCount: 5, DeltaFraction: 10})
	for i := 0; i < 5; i++ {
		mustTrain(t, m, Pattern{Vector: []float64{float64(i) * 0.01}, Label: "l"})
		if m.Delta() != 0 {
			t.Fatalf("delta should be 0 during slow start, got %v", m.Delta())
		}
	}
	for i := 5; i < 30; i++ {
		mustTrain(t, m, Pattern{Vector: []float64{float64(i) * 0.01}, Label: "l"})
	}
	if m.Delta() <= 0 {
		t.Error("delta should grow after slow start")
	}
}

func TestGrowthNames(t *testing.T) {
	for g := GrowthAdaptive; g <= GrowthSlowStart; g++ {
		if g.String() == "" {
			t.Errorf("growth %d has empty name", g)
		}
	}
	if Growth(42).String() != "growth(42)" {
		t.Error("unknown growth rendering")
	}
}

func TestTrainErrors(t *testing.T) {
	m := New(Config{})
	if err := m.Train(Pattern{}); !errors.Is(err, ErrEmptyPattern) {
		t.Errorf("empty vector: %v", err)
	}
	mustTrain(t, m, Pattern{Vector: []float64{1, 2}, Label: "a"})
	if err := m.Train(Pattern{Vector: []float64{1}, Label: "a"}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim mismatch: %v", err)
	}
	if err := m.TrainBatch([]Pattern{{Vector: []float64{1, 2}}, {Vector: []float64{3}}}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("batch dim mismatch: %v", err)
	}
}

func TestClassifyErrors(t *testing.T) {
	m := New(Config{})
	if _, err := m.Classify([]float64{1}); !errors.Is(err, ErrUntrained) {
		t.Errorf("untrained: %v", err)
	}
	mustTrain(t, m, Pattern{Vector: []float64{1, 2}, Label: "a"})
	if _, err := m.Classify([]float64{1}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim mismatch: %v", err)
	}
}

func TestTrainCopiesVector(t *testing.T) {
	m := New(Config{})
	v := []float64{1, 2, 3}
	mustTrain(t, m, Pattern{Vector: v, Label: "a"})
	v[0] = 999
	res, err := m.Classify([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance > 1e-9 {
		t.Error("training data was corrupted by caller mutation")
	}
}

func TestSphereAccessors(t *testing.T) {
	s := newSphere(Pattern{Vector: []float64{2, 4}, Label: "a"})
	s.add(Pattern{Vector: []float64{4, 6}, Label: "b"})
	if c := s.center; c[0] != 3 || c[1] != 5 {
		t.Errorf("center = %v, want [3 5]", c)
	}
	if s.Size() != 2 {
		t.Errorf("Size = %d", s.Size())
	}
}

func TestLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New(Config{})
	if err := m.TrainBatch(gaussianCloud(rng, testCenters, 5, 0.1)); err != nil {
		t.Fatal(err)
	}
	labels := m.Labels()
	want := []string{"a", "b", "c", "d"}
	if len(labels) != len(want) {
		t.Fatalf("Labels = %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("Labels = %v, want %v", labels, want)
		}
	}
}

// Property: training N patterns yields between 1 and N spheres, total
// stored patterns equals N, and every sphere's patterns lie within the
// final... note delta moves, so we assert the structural invariant only:
// counts are conserved.
func TestSphereCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m := New(Config{DeltaFraction: 0.2 + rng.Float64()})
		n := 1 + rng.Intn(200)
		total := 0
		for i := 0; i < n; i++ {
			v := []float64{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
			mustTrain(t, m, Pattern{Vector: v, Label: "l"})
			total++
		}
		if m.SphereCount() < 1 || m.SphereCount() > n {
			t.Fatalf("trial %d: %d spheres for %d patterns", trial, m.SphereCount(), n)
		}
		stored := 0
		for _, s := range m.spheres {
			stored += s.Size()
			// Centroid must equal the mean of member patterns.
			mean := make([]float64, m.dim)
			for _, p := range s.patterns {
				for j, x := range p.Vector {
					mean[j] += x
				}
			}
			for j := range mean {
				mean[j] /= float64(s.Size())
				if math.Abs(mean[j]-s.center[j]) > 1e-9 {
					t.Fatalf("trial %d: sphere centroid drifted: %v vs %v", trial, mean[j], s.center[j])
				}
			}
		}
		if stored != n {
			t.Fatalf("trial %d: stored %d patterns, trained %d", trial, stored, n)
		}
	}
}

// Higher sphere counts with smaller DeltaFraction: sanity check the knob.
func TestDeltaFractionControlsGranularity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	train := gaussianCloud(rng, testCenters, 50, 1.0)
	fine := New(Config{DeltaFraction: 0.1})
	coarse := New(Config{DeltaFraction: 2.0})
	if err := fine.TrainBatch(train); err != nil {
		t.Fatal(err)
	}
	if err := coarse.TrainBatch(train); err != nil {
		t.Fatal(err)
	}
	if fine.SphereCount() <= coarse.SphereCount() {
		t.Errorf("fine delta (%d spheres) should out-partition coarse (%d)",
			fine.SphereCount(), coarse.SphereCount())
	}
}

func TestDistanceEvalsTreeVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := New(Config{DeltaFraction: 0.1, RebuildEvery: 16, MaxLeaf: 4})
	if err := m.TrainBatch(gaussianCloud(rng, testCenters, 100, 1.5)); err != nil {
		t.Fatal(err)
	}
	m.rebuild()
	if m.SphereCount() < 50 {
		t.Skip("not enough spheres to compare meaningfully")
	}
	v := []float64{1, 1, 1}
	before := m.DistanceEvals()
	if _, err := m.Classify(v); err != nil {
		t.Fatal(err)
	}
	treeCost := m.DistanceEvals() - before
	before = m.DistanceEvals()
	if _, err := m.ClassifyExact(v); err != nil {
		t.Fatal(err)
	}
	exactCost := m.DistanceEvals() - before
	if treeCost >= exactCost {
		t.Errorf("tree search cost %d should beat exhaustive %d", treeCost, exactCost)
	}
}

func mustTrain(t *testing.T, m *MESO, p Pattern) {
	t.Helper()
	if err := m.Train(p); err != nil {
		t.Fatalf("Train: %v", err)
	}
}

func BenchmarkTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dim := 105
	b.ReportAllocs()
	b.ResetTimer()
	m := New(Config{})
	for i := 0; i < b.N; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if err := m.Train(Pattern{Vector: v, Label: "l"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassifyTree(b *testing.B) {
	m, queries := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Classify(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassifyExact(b *testing.B) {
	m, queries := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ClassifyExact(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchModel(b *testing.B) (*MESO, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	m := New(Config{DeltaFraction: 0.2})
	const dim = 105
	for i := 0; i < 2000; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if err := m.Train(Pattern{Vector: v, Label: string(rune('a' + i%10))}); err != nil {
			b.Fatal(err)
		}
	}
	m.rebuild()
	queries := make([][]float64, 64)
	for i := range queries {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		queries[i] = v
	}
	return m, queries
}
