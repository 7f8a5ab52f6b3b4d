package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBreakpointsKnownValues(t *testing.T) {
	// Standard SAX breakpoint tables (Lin et al. 2003).
	tests := []struct {
		alphabet int
		want     []float64
	}{
		{2, []float64{0}},
		{3, []float64{-0.43, 0.43}},
		{4, []float64{-0.67, 0, 0.67}},
		{5, []float64{-0.84, -0.25, 0.25, 0.84}},
		{8, []float64{-1.15, -0.67, -0.32, 0, 0.32, 0.67, 1.15}},
	}
	for _, tt := range tests {
		bp, err := Breakpoints(tt.alphabet)
		if err != nil {
			t.Fatalf("Breakpoints(%d): %v", tt.alphabet, err)
		}
		if len(bp) != tt.alphabet-1 {
			t.Fatalf("alphabet %d: %d breakpoints", tt.alphabet, len(bp))
		}
		for i := range tt.want {
			if !almostEqual(bp[i], tt.want[i], 0.01) {
				t.Errorf("alphabet %d bp[%d] = %v, want %v", tt.alphabet, i, bp[i], tt.want[i])
			}
		}
	}
}

func TestBreakpointsSortedAndSymmetric(t *testing.T) {
	for a := MinAlphabet; a <= 20; a++ {
		bp, err := Breakpoints(a)
		if err != nil {
			t.Fatal(err)
		}
		if !sort.Float64sAreSorted(bp) {
			t.Errorf("alphabet %d: breakpoints not sorted: %v", a, bp)
		}
		for i := range bp {
			if !almostEqual(bp[i], -bp[len(bp)-1-i], 1e-8) {
				t.Errorf("alphabet %d: breakpoints not symmetric: %v", a, bp)
				break
			}
		}
	}
}

func TestBreakpointsRange(t *testing.T) {
	for _, a := range []int{0, 1, MaxAlphabet + 1, -3} {
		if _, err := Breakpoints(a); !errors.Is(err, ErrBadAlphabet) {
			t.Errorf("alphabet %d should be rejected, got %v", a, err)
		}
	}
}

func TestNormQuantile(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.8413447, 1}, // Phi(1)
		{0.1586553, -1},
		{0.9772499, 2},
		{0.0013499, -3},
		{0.9999, 3.719},
	}
	for _, tt := range tests {
		if got := normQuantile(tt.p); !almostEqual(got, tt.want, 1e-3) {
			t.Errorf("normQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsInf(normQuantile(0), -1) || !math.IsInf(normQuantile(1), 1) {
		t.Error("quantile at 0/1 should be infinite")
	}
}

func TestSAXSymbol(t *testing.T) {
	s, err := NewSAX(4) // breakpoints ~ -0.67, 0, 0.67
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x    float64
		want int
	}{
		{-2, 0},
		{-0.7, 0},
		{-0.5, 1},
		{-0.001, 1},
		{0.001, 2},
		{0.5, 2},
		{0.7, 3},
		{10, 3},
	}
	for _, tt := range tests {
		if got := s.Symbol(tt.x); got != tt.want {
			t.Errorf("Symbol(%v) = %d, want %d", tt.x, got, tt.want)
		}
	}
	if got := s.Symbol(math.NaN()); got != 2 {
		t.Errorf("NaN should map to middle symbol, got %d", got)
	}
}

func TestSAXWord(t *testing.T) {
	s, err := NewSAX(5)
	if err != nil {
		t.Fatal(err)
	}
	// Ramp: symbols must be non-decreasing after PAA.
	series := make([]float64, 100)
	for i := range series {
		series[i] = float64(i)
	}
	word, err := s.Word(series, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(word) != 10 {
		t.Fatalf("word length %d", len(word))
	}
	for i := 1; i < len(word); i++ {
		if word[i] < word[i-1] {
			t.Errorf("word not monotone for ramp: %v", word)
			break
		}
	}
	if word[0] != 0 || word[len(word)-1] != 4 {
		t.Errorf("ramp should span the alphabet: %v", word)
	}
}

func TestSAXWordErrors(t *testing.T) {
	s, _ := NewSAX(4)
	if _, err := s.Word(nil, 3); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty: %v", err)
	}
	if _, err := s.Word([]float64{1, 2}, 5); !errors.Is(err, ErrBadSegments) {
		t.Errorf("w>n: %v", err)
	}
}

func TestSAXAlphabetAccessor(t *testing.T) {
	s, _ := NewSAX(8)
	if s.alphabet != 8 {
		t.Errorf("Alphabet = %d", s.alphabet)
	}
}

func TestNewSAXBadAlphabet(t *testing.T) {
	if _, err := NewSAX(1); err == nil {
		t.Error("alphabet 1 should be rejected")
	}
}

func TestWordOfNormalized(t *testing.T) {
	s, _ := NewSAX(3) // breakpoints ~ ±0.43
	word := s.WordOfNormalized([]float64{-1, 0, 1})
	want := []int{0, 1, 2}
	for i := range want {
		if word[i] != want[i] {
			t.Errorf("WordOfNormalized = %v, want %v", word, want)
			break
		}
	}
}

func TestWordString(t *testing.T) {
	if got := WordString([]int{0, 1, 2}, 3); got != "abc" {
		t.Errorf("WordString = %q, want abc", got)
	}
	if got := WordString([]int{-1, 5}, 3); got != "ac" {
		t.Errorf("WordString with clamping = %q, want ac", got)
	}
	if got := WordString([]int{3, 30}, 40); got != "3 30" {
		t.Errorf("WordString large alphabet = %q", got)
	}
}

func TestMinDistAdjacentSymbolsZero(t *testing.T) {
	s, _ := NewSAX(8)
	d, err := s.MinDist([]int{3, 4, 2}, []int{4, 3, 3}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("adjacent-symbol words should have MinDist 0, got %v", d)
	}
}

func TestMinDistKnown(t *testing.T) {
	s, _ := NewSAX(4) // bps: -0.67, 0, 0.67
	// Symbols 0 and 3: dist = bp[2] - bp[0] = 1.349.
	d, err := s.MinDist([]int{0}, []int{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 1.349, 0.01) {
		t.Errorf("MinDist = %v, want ~1.349", d)
	}
}

func TestMinDistErrors(t *testing.T) {
	s, _ := NewSAX(4)
	if _, err := s.MinDist([]int{1}, []int{1, 2}, 4); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := s.MinDist(nil, nil, 4); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty words: %v", err)
	}
}

// Property: MinDist is symmetric and non-negative.
func TestQuickMinDistSymmetric(t *testing.T) {
	s, _ := NewSAX(8)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(16)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(8)
			b[i] = rng.Intn(8)
		}
		dab, err := s.MinDist(a, b, n*4)
		if err != nil {
			t.Fatal(err)
		}
		dba, _ := s.MinDist(b, a, n*4)
		if !almostEqual(dab, dba, 1e-12) || dab < 0 {
			t.Fatalf("trial %d: MinDist not symmetric/non-negative: %v vs %v", trial, dab, dba)
		}
		daa, _ := s.MinDist(a, a, n*4)
		if daa != 0 {
			t.Fatalf("trial %d: MinDist(a,a) = %v", trial, daa)
		}
	}
}

// Property: on large Gaussian samples, each symbol appears with roughly
// equal probability — the defining property of SAX breakpoints.
func TestSAXEquiprobableSymbols(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, a := range []int{2, 4, 8, 16} {
		s, err := NewSAX(a)
		if err != nil {
			t.Fatal(err)
		}
		const n = 200000
		counts := make([]int, a)
		for i := 0; i < n; i++ {
			counts[s.Symbol(rng.NormFloat64())]++
		}
		want := float64(n) / float64(a)
		for sym, c := range counts {
			if math.Abs(float64(c)-want)/want > 0.05 {
				t.Errorf("alphabet %d: symbol %d frequency %v deviates >5%% from %v", a, sym, c, want)
			}
		}
	}
}
