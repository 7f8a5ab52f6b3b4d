// Package eval implements the paper's assessment methodology (Section 4):
// leave-one-out and resubstitution cross-validation over ensemble and
// pattern data sets, with per-iteration accuracy statistics, train/test
// timing, and confusion matrices.
package eval

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/meso"
)

// Result aggregates a cross-validation experiment.
type Result struct {
	// MeanAccuracy and StdDev are over the n repetitions, as in Table 2.
	MeanAccuracy float64
	StdDev       float64
	// TrainTime and TestTime are the total wall-clock seconds spent in
	// training and testing across all repetitions, divided by n (i.e.,
	// per-repetition, matching Table 2's presentation).
	TrainTime float64
	TestTime  float64
	// Confusion is accumulated over all repetitions (row = actual,
	// column = predicted), in percent per row, like Table 3.
	Confusion *ConfusionMatrix
	// Repetitions actually executed.
	Repetitions int
}

// String renders the accuracy like the paper's Table 2 rows.
func (r *Result) String() string {
	return fmt.Sprintf("%.1f%%±%.1f%% (train %.1fs, test %.1fs)",
		r.MeanAccuracy*100, r.StdDev*100, r.TrainTime, r.TestTime)
}

// ConfusionMatrix counts predictions by (actual, predicted) label.
type ConfusionMatrix struct {
	Labels []string
	counts map[string]map[string]int
}

// NewConfusionMatrix returns an empty matrix over the given labels.
func NewConfusionMatrix(labels []string) *ConfusionMatrix {
	sorted := append([]string(nil), labels...)
	sort.Strings(sorted)
	return &ConfusionMatrix{Labels: sorted, counts: make(map[string]map[string]int)}
}

// Add records one classification outcome.
func (m *ConfusionMatrix) Add(actual, predicted string) {
	row, ok := m.counts[actual]
	if !ok {
		row = make(map[string]int)
		m.counts[actual] = row
	}
	row[predicted]++
}

// RowPercent returns 100 * count / rowTotal, the paper's Table 3 cells.
func (m *ConfusionMatrix) RowPercent(actual, predicted string) float64 {
	total := 0
	for _, c := range m.counts[actual] {
		total += c
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(m.counts[actual][predicted]) / float64(total)
}

// Accuracy returns the overall fraction correct.
func (m *ConfusionMatrix) Accuracy() float64 {
	correct, total := 0, 0
	for actual, row := range m.counts {
		for predicted, c := range row {
			total += c
			if actual == predicted {
				correct += c
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Format renders the matrix like Table 3: rows are actual species,
// columns predicted, cells row-percentages with the diagonal the correct
// classifications.
func (m *ConfusionMatrix) Format() string {
	out := "Actual\\Pred"
	for _, l := range m.Labels {
		out += fmt.Sprintf("%7s", l)
	}
	out += "\n"
	for _, actual := range m.Labels {
		out += fmt.Sprintf("%-11s", actual)
		for _, pred := range m.Labels {
			p := m.RowPercent(actual, pred)
			if p == 0 {
				out += "      -"
			} else {
				out += fmt.Sprintf("%7.1f", p)
			}
		}
		out += "\n"
	}
	return out
}

// Options control a cross-validation run.
type Options struct {
	// Meso configures the classifier trained in each fold.
	Meso meso.Config
	// Repetitions is the paper's n (20 for leave-one-out, 100 for
	// resubstitution).
	Repetitions int
	// Seed drives dataset shuffling.
	Seed int64
	// MaxFolds caps the number of leave-one-out folds evaluated per
	// repetition (0 = all). The paper evaluates every fold; the cap
	// exists so scaled-down runs finish quickly with an unbiased
	// subsample (folds are drawn from a fresh shuffle each repetition).
	MaxFolds int
}

// LeaveOneOutEnsembles runs the paper's ensemble leave-one-out protocol:
// per fold, train MESO on all ensembles but one and classify the held-out
// ensemble by pattern voting.
func LeaveOneOutEnsembles(ds []core.LabelledEnsemble, opt Options) (*Result, error) {
	if len(ds) < 2 {
		return nil, fmt.Errorf("eval: need at least 2 ensembles, have %d", len(ds))
	}
	reps := opt.Repetitions
	if reps <= 0 {
		reps = 1
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	res := &Result{Confusion: NewConfusionMatrix(labelsOfEnsembles(ds)), Repetitions: reps}
	var accs []float64
	var trainDur, testDur time.Duration
	for rep := 0; rep < reps; rep++ {
		perm := rng.Perm(len(ds))
		folds := len(ds)
		if opt.MaxFolds > 0 && opt.MaxFolds < folds {
			folds = opt.MaxFolds
		}
		correct := 0
		for f := 0; f < folds; f++ {
			holdout := ds[perm[f]]
			cls := core.NewClassifier(opt.Meso)
			t0 := time.Now()
			for _, idx := range perm {
				if idx == perm[f] {
					continue
				}
				if err := cls.TrainEnsemble(ds[idx]); err != nil {
					return nil, err
				}
			}
			trainDur += time.Since(t0)
			t0 = time.Now()
			vote, err := cls.ClassifyEnsemble(holdout.Patterns)
			if err != nil {
				return nil, err
			}
			testDur += time.Since(t0)
			res.Confusion.Add(holdout.Label, vote.Label)
			if vote.Label == holdout.Label {
				correct++
			}
		}
		accs = append(accs, float64(correct)/float64(folds))
	}
	res.MeanAccuracy, res.StdDev = meanStd(accs)
	res.TrainTime = trainDur.Seconds() / float64(reps)
	res.TestTime = testDur.Seconds() / float64(reps)
	return res, nil
}

// LeaveOneOutPatterns runs the pattern-level protocol: ensemble grouping
// is not retained; each pattern is held out and classified alone.
func LeaveOneOutPatterns(ds []core.LabelledPattern, opt Options) (*Result, error) {
	if len(ds) < 2 {
		return nil, fmt.Errorf("eval: need at least 2 patterns, have %d", len(ds))
	}
	reps := opt.Repetitions
	if reps <= 0 {
		reps = 1
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	res := &Result{Confusion: NewConfusionMatrix(labelsOfPatterns(ds)), Repetitions: reps}
	var accs []float64
	var trainDur, testDur time.Duration
	for rep := 0; rep < reps; rep++ {
		perm := rng.Perm(len(ds))
		folds := len(ds)
		if opt.MaxFolds > 0 && opt.MaxFolds < folds {
			folds = opt.MaxFolds
		}
		correct := 0
		for f := 0; f < folds; f++ {
			holdout := ds[perm[f]]
			cls := core.NewClassifier(opt.Meso)
			t0 := time.Now()
			for _, idx := range perm {
				if idx == perm[f] {
					continue
				}
				if err := cls.TrainPattern(ds[idx].Label, ds[idx].Vector); err != nil {
					return nil, err
				}
			}
			trainDur += time.Since(t0)
			t0 = time.Now()
			got, err := cls.ClassifyPattern(holdout.Vector)
			if err != nil {
				return nil, err
			}
			testDur += time.Since(t0)
			res.Confusion.Add(holdout.Label, got)
			if got == holdout.Label {
				correct++
			}
		}
		accs = append(accs, float64(correct)/float64(folds))
	}
	res.MeanAccuracy, res.StdDev = meanStd(accs)
	res.TrainTime = trainDur.Seconds() / float64(reps)
	res.TestTime = testDur.Seconds() / float64(reps)
	return res, nil
}

// ResubstitutionEnsembles trains and tests on the full ensemble data set,
// estimating the maximum accuracy expected for the data (Table 2's
// resubstitution rows).
func ResubstitutionEnsembles(ds []core.LabelledEnsemble, opt Options) (*Result, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("eval: empty dataset")
	}
	reps := opt.Repetitions
	if reps <= 0 {
		reps = 1
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	res := &Result{Confusion: NewConfusionMatrix(labelsOfEnsembles(ds)), Repetitions: reps}
	var accs []float64
	var trainDur, testDur time.Duration
	for rep := 0; rep < reps; rep++ {
		perm := rng.Perm(len(ds))
		cls := core.NewClassifier(opt.Meso)
		t0 := time.Now()
		for _, idx := range perm {
			if err := cls.TrainEnsemble(ds[idx]); err != nil {
				return nil, err
			}
		}
		trainDur += time.Since(t0)
		correct := 0
		t0 = time.Now()
		for _, e := range ds {
			vote, err := cls.ClassifyEnsemble(e.Patterns)
			if err != nil {
				return nil, err
			}
			res.Confusion.Add(e.Label, vote.Label)
			if vote.Label == e.Label {
				correct++
			}
		}
		testDur += time.Since(t0)
		accs = append(accs, float64(correct)/float64(len(ds)))
	}
	res.MeanAccuracy, res.StdDev = meanStd(accs)
	res.TrainTime = trainDur.Seconds() / float64(reps)
	res.TestTime = testDur.Seconds() / float64(reps)
	return res, nil
}

// ResubstitutionPatterns trains and tests on the full pattern data set.
func ResubstitutionPatterns(ds []core.LabelledPattern, opt Options) (*Result, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("eval: empty dataset")
	}
	reps := opt.Repetitions
	if reps <= 0 {
		reps = 1
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	res := &Result{Confusion: NewConfusionMatrix(labelsOfPatterns(ds)), Repetitions: reps}
	var accs []float64
	var trainDur, testDur time.Duration
	for rep := 0; rep < reps; rep++ {
		perm := rng.Perm(len(ds))
		cls := core.NewClassifier(opt.Meso)
		t0 := time.Now()
		for _, idx := range perm {
			if err := cls.TrainPattern(ds[idx].Label, ds[idx].Vector); err != nil {
				return nil, err
			}
		}
		trainDur += time.Since(t0)
		correct := 0
		t0 = time.Now()
		for _, p := range ds {
			got, err := cls.ClassifyPattern(p.Vector)
			if err != nil {
				return nil, err
			}
			res.Confusion.Add(p.Label, got)
			if got == p.Label {
				correct++
			}
		}
		testDur += time.Since(t0)
		accs = append(accs, float64(correct)/float64(len(ds)))
	}
	res.MeanAccuracy, res.StdDev = meanStd(accs)
	res.TrainTime = trainDur.Seconds() / float64(reps)
	res.TestTime = testDur.Seconds() / float64(reps)
	return res, nil
}

func meanStd(v []float64) (mean, std float64) {
	if len(v) == 0 {
		return 0, 0
	}
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	if len(v) < 2 {
		return mean, 0
	}
	var s2 float64
	for _, x := range v {
		d := x - mean
		s2 += d * d
	}
	return mean, math.Sqrt(s2 / float64(len(v)-1))
}

func labelsOfEnsembles(ds []core.LabelledEnsemble) []string {
	set := map[string]struct{}{}
	for _, e := range ds {
		set[e.Label] = struct{}{}
	}
	return setToSlice(set)
}

func labelsOfPatterns(ds []core.LabelledPattern) []string {
	set := map[string]struct{}{}
	for _, p := range ds {
		set[p.Label] = struct{}{}
	}
	return setToSlice(set)
}

func setToSlice(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
