package timeseries

import (
	"math"
	"testing"
)

func TestStreamingZScoreFlagsShift(t *testing.T) {
	z := NewStreamingZScore(0.2, 10)
	// Steady baseline around 10 with small wiggle.
	for i := 0; i < 40; i++ {
		x := 10.0
		if i%2 == 0 {
			x = 10.5
		}
		score, warm := z.Push(x)
		if i >= 10 && !warm {
			t.Fatalf("not warm after %d samples", i+1)
		}
		if i >= 10 && math.Abs(score) > 3 {
			t.Fatalf("baseline sample %d scored %.2f", i, score)
		}
	}
	// A level shift must score high on its FIRST appearance (scored
	// against the pre-shift baseline).
	score, warm := z.Push(100)
	if !warm {
		t.Fatal("detector should be warm")
	}
	if score < 4 {
		t.Fatalf("level shift scored only %.2f", score)
	}
}

func TestStreamingZScoreFlatSeriesNoExplosion(t *testing.T) {
	z := NewStreamingZScore(0.1, 5)
	for i := 0; i < 20; i++ {
		z.Push(7)
	}
	// Variance is zero; the sigma floor must keep a tiny wiggle finite
	// and modest relative to the mean-scaled floor.
	score, _ := z.Push(7.0000001)
	if math.IsInf(score, 0) || math.IsNaN(score) {
		t.Fatalf("flat series produced score %v", score)
	}
	if math.Abs(score) > 1 {
		t.Fatalf("negligible wiggle on flat series scored %.4f", score)
	}
	// Even a genuinely huge jump stays clamped.
	score, _ = z.Push(1e30)
	if score > 1e6 {
		t.Fatalf("score %v exceeds clamp", score)
	}
}

func TestStreamingZScoreMinSigmaFloor(t *testing.T) {
	// A flat ZERO baseline has a near-zero relative floor, so without
	// MinSigma a one-unit wiggle scores astronomically.
	z := NewStreamingZScore(0.1, 5)
	for i := 0; i < 20; i++ {
		z.Push(0)
	}
	if score, _ := z.Push(1); score < 1e5 {
		t.Fatalf("zero-baseline wiggle scored %.2f; expected near-clamp without a floor", score)
	}
	// With an absolute floor of 4 units, the same wiggle is sub-threshold
	// noise and only a genuinely large excursion flags.
	z = NewStreamingZScore(0.1, 5)
	z.MinSigma = 4
	for i := 0; i < 20; i++ {
		z.Push(0)
	}
	if score, _ := z.Push(1); score > 1 {
		t.Fatalf("one-unit wiggle scored %.2f with MinSigma 4", score)
	}
	if score, _ := z.Push(100); score < 4 {
		t.Fatalf("large excursion scored only %.2f with MinSigma 4", score)
	}

	// PushFloor sticks the floor to the set's series.
	s := NewZScoreSet(0.1, 3)
	for i := 0; i < 10; i++ {
		s.PushFloor("n1/queue_depth", 0, 4)
	}
	if score, warm := s.PushFloor("n1/queue_depth", 2, 0); !warm || score > 1 {
		t.Fatalf("floor did not stick: score=%.2f warm=%v", score, warm)
	}
}

func TestStreamingZScoreFirstSample(t *testing.T) {
	z := NewStreamingZScore(0.3, 3)
	score, warm := z.Push(42)
	if score != 0 || warm {
		t.Fatalf("first sample = (%.2f, %v), want (0, false)", score, warm)
	}
	if z.seen != 1 {
		t.Fatalf("seen = %d", z.seen)
	}
}

func TestZScoreSetRoutesAndForgets(t *testing.T) {
	s := NewZScoreSet(0.2, 3)
	for i := 0; i < 10; i++ {
		s.PushFloor("n1/queue_depth", 5, 0)
		s.PushFloor("n2/queue_depth", 50, 0)
	}
	if len(s.m) != 2 {
		t.Fatalf("Len = %d, want 2", len(s.m))
	}
	// n1's baseline is 5; seeing 50 there is anomalous even though n2
	// sees 50 all the time — the series must be independent.
	score, warm := s.PushFloor("n1/queue_depth", 50, 0)
	if !warm || score < 4 {
		t.Fatalf("cross-series contamination: score=%.2f warm=%v", score, warm)
	}
	score, warm = s.PushFloor("n2/queue_depth", 50, 0)
	if !warm || math.Abs(score) > 1 {
		t.Fatalf("n2 baseline broken: score=%.2f warm=%v", score, warm)
	}
	s.Forget("n1/")
	if len(s.m) != 1 {
		t.Fatalf("Forget left %d series", len(s.m))
	}
	// Recreated series starts cold.
	if _, warm := s.PushFloor("n1/queue_depth", 5, 0); warm {
		t.Fatal("forgotten series came back warm")
	}
}
