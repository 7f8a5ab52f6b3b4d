package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: EWStats mean always lies within the observed min/max, and
// variance is non-negative.
func TestQuickEWStatsBounds(t *testing.T) {
	f := func(raw []int16, alphaSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		alpha := float64(alphaSel%100+1) / 100
		e, err := NewEWStats(alpha)
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			x := float64(r) / 64
			e.Add(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if e.Count() != uint64(len(raw)) {
			return false
		}
		return e.Mean() >= lo-1e-9 && e.Mean() <= hi+1e-9 && e.vari >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEWStatsAlphaValidation(t *testing.T) {
	for _, a := range []float64{0, -0.1, 1.5} {
		if _, err := NewEWStats(a); err == nil {
			t.Errorf("alpha %v should be rejected", a)
		}
	}
	e, err := NewEWStats(1)
	if err != nil {
		t.Fatal(err)
	}
	e.Add(5)
	e.Add(9)
	// Alpha 1: mean tracks the latest observation exactly.
	if e.Mean() != 9 {
		t.Errorf("alpha=1 mean = %v, want 9", e.Mean())
	}
	e.Reset()
	if e.Count() != 0 || e.Mean() != 0 || e.StdDev() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestEWStatsConvergesToNewRegime(t *testing.T) {
	e, _ := NewEWStats(0.01)
	for i := 0; i < 2000; i++ {
		e.Add(10)
	}
	for i := 0; i < 2000; i++ {
		e.Add(20)
	}
	if math.Abs(e.Mean()-20) > 0.01 {
		t.Errorf("EW mean %v did not converge to new regime 20", e.Mean())
	}
	// Welford, by contrast, remembers the old regime forever.
	var w Welford
	for i := 0; i < 2000; i++ {
		w.Add(10)
	}
	for i := 0; i < 2000; i++ {
		w.Add(20)
	}
	if math.Abs(w.Mean()-15) > 0.01 {
		t.Errorf("Welford mean = %v, want 15", w.Mean())
	}
}

// Property: PAAReduce output length is ceil(n/factor) and values are
// bounded by input extrema.
func TestQuickPAAReduceShape(t *testing.T) {
	f := func(raw []int16, fSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		factor := 1 + int(fSel)%16
		in := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			in[i] = float64(r)
			lo = math.Min(lo, in[i])
			hi = math.Max(hi, in[i])
		}
		out, err := PAAReduce(in, factor)
		if err != nil {
			return false
		}
		want := (len(in) + factor - 1) / factor
		if len(out) != want {
			return false
		}
		for _, v := range out {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: SAX words always contain symbols in [0, alphabet).
func TestQuickSAXSymbolRange(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		a := 2 + rng.Intn(30)
		s, err := NewSAX(a)
		if err != nil {
			t.Fatal(err)
		}
		n := 2 + rng.Intn(100)
		series := make([]float64, n)
		for i := range series {
			series[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		w := 1 + rng.Intn(n)
		word, err := s.Word(series, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, sym := range word {
			if sym < 0 || sym >= a {
				t.Fatalf("symbol %d outside [0, %d)", sym, a)
			}
		}
	}
}

// Property: the anomaly detector is deterministic — the same series gives
// the same scores.
func TestQuickAnomalyDeterministic(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 30 {
			return true
		}
		series := make([]float64, len(raw))
		for i, r := range raw {
			series[i] = float64(r)
		}
		cfg := AnomalyConfig{Alphabet: 4, Window: 8, Gram: 1}
		a, err := Scores(series, cfg)
		if err != nil {
			return false
		}
		b, _ := Scores(series, cfg)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
