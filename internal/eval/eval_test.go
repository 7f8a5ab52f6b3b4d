package eval

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/meso"
)

// synthPatterns builds an easily separable two-class pattern set.
func synthPatterns(rng *rand.Rand, perClass int) []core.LabelledPattern {
	var out []core.LabelledPattern
	for i := 0; i < perClass; i++ {
		out = append(out,
			core.LabelledPattern{Label: "A", Vector: []float64{rng.NormFloat64()*0.3 + 0, 0}},
			core.LabelledPattern{Label: "B", Vector: []float64{rng.NormFloat64()*0.3 + 5, 5}},
		)
	}
	return out
}

func synthEnsembles(rng *rand.Rand, perClass, patsPer int) []core.LabelledEnsemble {
	var out []core.LabelledEnsemble
	for i := 0; i < perClass; i++ {
		for _, class := range []struct {
			label string
			base  float64
		}{{"A", 0}, {"B", 5}} {
			var pats [][]float64
			for p := 0; p < patsPer; p++ {
				pats = append(pats, []float64{rng.NormFloat64()*0.3 + class.base, class.base})
			}
			out = append(out, core.LabelledEnsemble{Label: class.label, Patterns: pats})
		}
	}
	return out
}

func TestConfusionMatrixBasics(t *testing.T) {
	m := NewConfusionMatrix([]string{"B", "A"})
	if m.Labels[0] != "A" {
		t.Error("labels not sorted")
	}
	m.Add("A", "A")
	m.Add("A", "A")
	m.Add("A", "B")
	m.Add("B", "B")
	if m.counts["A"]["A"] != 2 || m.counts["A"]["B"] != 1 {
		t.Error("counts wrong")
	}
	if p := m.RowPercent("A", "A"); math.Abs(p-100.0*2/3) > 1e-9 {
		t.Errorf("RowPercent = %v", p)
	}
	if p := m.RowPercent("ZZ", "A"); p != 0 {
		t.Errorf("empty row percent = %v", p)
	}
	if acc := m.Accuracy(); math.Abs(acc-0.75) > 1e-9 {
		t.Errorf("Accuracy = %v", acc)
	}
	f := m.Format()
	if !strings.Contains(f, "A") || !strings.Contains(f, "66.7") {
		t.Errorf("Format output:\n%s", f)
	}
}

func TestConfusionMatrixEmpty(t *testing.T) {
	m := NewConfusionMatrix(nil)
	if m.Accuracy() != 0 {
		t.Error("empty matrix accuracy should be 0")
	}
}

func TestLeaveOneOutPatternsSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := synthPatterns(rng, 15)
	res, err := LeaveOneOutPatterns(ds, Options{Repetitions: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAccuracy < 0.95 {
		t.Errorf("accuracy = %v on separable data", res.MeanAccuracy)
	}
	if res.Repetitions != 2 {
		t.Errorf("Repetitions = %d", res.Repetitions)
	}
	if res.TrainTime < 0 || res.TestTime < 0 {
		t.Error("negative timing")
	}
	if res.Confusion.Accuracy() < 0.95 {
		t.Errorf("confusion accuracy = %v", res.Confusion.Accuracy())
	}
	if s := res.String(); !strings.Contains(s, "%") {
		t.Errorf("String() = %q", s)
	}
}

func TestLeaveOneOutEnsemblesSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := synthEnsembles(rng, 6, 5)
	res, err := LeaveOneOutEnsembles(ds, Options{Repetitions: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAccuracy < 0.95 {
		t.Errorf("accuracy = %v on separable data", res.MeanAccuracy)
	}
}

func TestLeaveOneOutMaxFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := synthPatterns(rng, 30)
	res, err := LeaveOneOutPatterns(ds, Options{Repetitions: 1, MaxFolds: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, a := range res.Confusion.Labels {
		for _, p := range res.Confusion.Labels {
			total += res.Confusion.counts[a][p]
		}
	}
	if total != 10 {
		t.Errorf("evaluated %d folds, want 10", total)
	}
}

func TestResubstitutionPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := synthPatterns(rng, 20)
	res, err := ResubstitutionPatterns(ds, Options{Repetitions: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Resubstitution on separable data should be essentially perfect.
	if res.MeanAccuracy < 0.97 {
		t.Errorf("resubstitution accuracy = %v", res.MeanAccuracy)
	}
}

func TestResubstitutionEnsembles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := synthEnsembles(rng, 5, 4)
	res, err := ResubstitutionEnsembles(ds, Options{Repetitions: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAccuracy < 0.97 {
		t.Errorf("resubstitution accuracy = %v", res.MeanAccuracy)
	}
}

func TestResubstitutionBeatsLeaveOneOutOnNoisyData(t *testing.T) {
	// With heavy class overlap, resubstitution (memorization) should
	// outperform leave-one-out — the relationship Table 2 shows.
	rng := rand.New(rand.NewSource(6))
	var ds []core.LabelledPattern
	for i := 0; i < 40; i++ {
		ds = append(ds,
			core.LabelledPattern{Label: "A", Vector: []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2}},
			core.LabelledPattern{Label: "B", Vector: []float64{rng.NormFloat64()*2 + 1.5, rng.NormFloat64() * 2}},
		)
	}
	cfg := meso.Config{DeltaFraction: 0.3}
	loo, err := LeaveOneOutPatterns(ds, Options{Meso: cfg, Repetitions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resub, err := ResubstitutionPatterns(ds, Options{Meso: cfg, Repetitions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resub.MeanAccuracy <= loo.MeanAccuracy {
		t.Errorf("resubstitution %v should beat leave-one-out %v on overlapping classes",
			resub.MeanAccuracy, loo.MeanAccuracy)
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := LeaveOneOutPatterns(nil, Options{}); err == nil {
		t.Error("empty pattern LOO should error")
	}
	if _, err := LeaveOneOutEnsembles(nil, Options{}); err == nil {
		t.Error("empty ensemble LOO should error")
	}
	if _, err := ResubstitutionPatterns(nil, Options{}); err == nil {
		t.Error("empty pattern resub should error")
	}
	if _, err := ResubstitutionEnsembles(nil, Options{}); err == nil {
		t.Error("empty ensemble resub should error")
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m-5) > 1e-9 {
		t.Errorf("mean = %v", m)
	}
	// Sample std (n-1): sqrt(32/7).
	if math.Abs(s-math.Sqrt(32.0/7)) > 1e-9 {
		t.Errorf("std = %v", s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Error("empty meanStd")
	}
	if _, s := meanStd([]float64{3}); s != 0 {
		t.Error("single-element std should be 0")
	}
}

// End-to-end: a small synthetic bird dataset should classify well above
// chance (10%) with both protocols, and PAA should not catastrophically
// hurt accuracy — the qualitative claims of Table 2.
func TestBirdDatasetClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis-heavy")
	}
	counts := core.ScaleCounts(core.PaperCounts(), 0.05)
	ds, err := core.BuildDataset(core.DatasetConfig{Counts: counts, PAAFactor: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	res, err := LeaveOneOutEnsembles(ds.Ensembles, Options{Repetitions: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("PAA ensemble LOO accuracy on scaled dataset: %v", res.MeanAccuracy)
	if res.MeanAccuracy < 0.5 {
		t.Errorf("accuracy %v is too close to chance", res.MeanAccuracy)
	}
}
