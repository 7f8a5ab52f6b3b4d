package timeseries

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/synth"
)

// referenceSymbol is SAX symbolization by binary search over the
// breakpoints: the first breakpoint >= z, NaN mid-scale.
func referenceSymbol(bp []float64, z float64) int {
	if math.IsNaN(z) {
		return (len(bp) + 1) / 2
	}
	return sort.SearchFloat64s(bp, z)
}

// referenceScores recomputes the detector's output naively: symbolize every
// sample with the same running normalization, then for each t build lag and
// lead bitmaps from scratch.
func referenceScores(series []float64, cfg AnomalyConfig) []float64 {
	bp, err := Breakpoints(cfg.Alphabet)
	if err != nil {
		panic(err)
	}
	var norm Welford
	symbols := make([]int, len(series))
	for i, x := range series {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = norm.Mean()
		}
		norm.Add(x)
		var z float64
		if s := norm.StdDev(); s >= zNormEps {
			z = (x - norm.Mean()) / s
		}
		symbols[i] = referenceSymbol(bp, z)
	}
	w, g := cfg.Window, cfg.Gram
	out := make([]float64, len(series))
	for t := range series {
		if t+1 < 2*w {
			continue
		}
		lead, _ := NewBitmap(cfg.Alphabet, g)
		lag, _ := NewBitmap(cfg.Alphabet, g)
		lead.AddWord(symbols[t+1-w : t+1])
		lag.AddWord(symbols[t+1-2*w : t+1-w])
		d, _ := BitmapDistance(lag, lead)
		out[t] = d
	}
	return out
}

// requireSameBits fails unless got and want are bit-for-bit equal.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: score[%d] = %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// clipWithCorruption is a synthetic station clip with NaN and ±Inf
// readings injected, including inside the first warm-up window.
func clipWithCorruption(t *testing.T, seconds float64) []float64 {
	t.Helper()
	clip, err := synth.GenerateClip(rand.New(rand.NewSource(7)), synth.ClipConfig{Seconds: seconds, Events: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := clip.Samples
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for j := 50 + i; j < len(s); j += 997 + 13*i {
			s[j] = v
		}
	}
	return s
}

// TestAnomalyDetectorMatchesReference requires every score to be
// bit-identical to the from-scratch reference. A row with a prefix pushes
// it, resets the detector part-way through, and then scores the series as
// a fresh detector must.
func TestAnomalyDetectorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	event := func() []float64 {
		series := make([]float64, 300)
		for i := range series {
			series[i] = rng.NormFloat64()
			if i > 150 && i < 200 {
				series[i] += 4 * math.Sin(float64(i)*0.7) // injected event
			}
		}
		return series
	}
	clip := clipWithCorruption(t, 1)
	cases := []struct {
		cfg    AnomalyConfig
		prefix []float64 // pushed, then Reset, before series
		series []float64
	}{
		{AnomalyConfig{Alphabet: 4, Window: 8, Gram: 1}, nil, event()},
		{AnomalyConfig{Alphabet: 4, Window: 8, Gram: 2}, nil, event()},
		{AnomalyConfig{Alphabet: 8, Window: 16, Gram: 2}, nil, event()},
		{AnomalyConfig{Alphabet: 8, Window: 10, Gram: 3}, nil, event()},
		{AnomalyConfig{Alphabet: 3, Window: 5, Gram: 4}, nil, event()},
		{AnomalyConfig{Alphabet: 2, Window: 1, Gram: 1}, nil, event()},
		{AnomalyConfig{Alphabet: 64, Window: 6, Gram: 2}, nil, event()},
		{DefaultAnomalyConfig(), nil, clip},
		{DefaultAnomalyConfig(), clip[:len(clip)/2+7], clip[len(clip)/3:]},
		{AnomalyConfig{Alphabet: 5, Window: 12, Gram: 3}, clip[:len(clip)/2+7], clip[len(clip)/3:]},
	}
	for _, tc := range cases {
		what := fmt.Sprintf("cfg %+v, %d-sample reset prefix", tc.cfg, len(tc.prefix))
		d, err := NewAnomalyDetector(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tc.prefix != nil {
			for _, x := range tc.prefix {
				d.Push(x)
			}
			d.Reset()
			if d.Warm() {
				t.Fatalf("%s: Warm() true after Reset", what)
			}
		}
		got := make([]float64, len(tc.series))
		for i, x := range tc.series {
			if s, ok := d.Push(x); ok {
				got[i] = s
			}
		}
		requireSameBits(t, what, got, referenceScores(tc.series, tc.cfg))
	}
}

// TestSymbolMatchesBinarySearch pins SAX.Symbol to the binary search over
// the breakpoints for every alphabet, at and around each breakpoint and at
// the special values.
func TestSymbolMatchesBinarySearch(t *testing.T) {
	for a := MinAlphabet; a <= MaxAlphabet; a++ {
		s, err := NewSAX(a)
		if err != nil {
			t.Fatal(err)
		}
		probes := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e300, -1e300}
		for _, b := range s.breakpoints {
			probes = append(probes, b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)))
		}
		for _, z := range probes {
			if got, want := s.Symbol(z), referenceSymbol(s.breakpoints, z); got != want {
				t.Fatalf("alphabet %d: Symbol(%v) = %d, binary search %d", a, z, got, want)
			}
		}
	}
}

func TestAnomalyDetectorZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins run without -race")
	}
	d, err := NewAnomalyDetector(DefaultAnomalyConfig())
	if err != nil {
		t.Fatal(err)
	}
	series := clipWithCorruption(t, 0.1)
	if allocs := testing.AllocsPerRun(20, func() {
		for _, x := range series {
			d.Push(x)
		}
	}); allocs != 0 {
		t.Errorf("Push allocates %.1f per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, d.Reset); allocs != 0 {
		t.Errorf("Reset allocates %.1f per run, want 0", allocs)
	}
}

// FuzzAnomalyDetector derives a configuration from the first three bytes
// (alphabet 2..16, window 2..64, gram 1..4) and reads the rest as
// little-endian float64 samples, so NaNs, infinities, subnormals and huge
// magnitudes all occur. Every score must be bit-equal to the from-scratch
// reference and lie in [0, √2].
func FuzzAnomalyDetector(f *testing.F) {
	for _, s := range fuzzAnomalySeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := AnomalyConfig{
			Alphabet: 2 + int(data[0])%15,
			Window:   2 + int(data[1])%63,
			Gram:     min(1+int(data[2])%4, 2+int(data[1])%63),
		}
		series := make([]float64, (len(data)-3)/8)
		for i := range series {
			series[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[3+8*i:]))
		}
		d, err := NewAnomalyDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceScores(series, cfg)
		for i, x := range series {
			s, ok := d.Push(x)
			if ok != (i+1 >= 2*cfg.Window) {
				t.Fatalf("cfg %+v: sample %d: ok = %v", cfg, i, ok)
			}
			if !ok {
				continue
			}
			if math.Float64bits(s) != math.Float64bits(want[i]) {
				t.Fatalf("cfg %+v: score[%d] = %v, reference %v", cfg, i, s, want[i])
			}
			if !(s >= 0 && s <= math.Sqrt2) {
				t.Fatalf("cfg %+v: score[%d] = %v outside [0, √2]", cfg, i, s)
			}
		}
	})
}

// fuzzAnomalySeeds returns the committed FuzzAnomalyDetector seeds: noise
// with an event, a step, and runs salted with each special value.
func fuzzAnomalySeeds() [][]byte {
	seed := func(alphabet, window, gram byte, samples []float64) []byte {
		b := []byte{alphabet - 2, window - 2, gram - 1}
		for _, x := range samples {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	rng := rand.New(rand.NewSource(5))
	noise := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
			if i > n/2 && i < 3*n/4 {
				v[i] += 3 * math.Sin(float64(i)*0.9)
			}
		}
		return v
	}
	step := noise(96)
	for i := 48; i < len(step); i++ {
		step[i] += 10
	}
	salted := func(n int, specials ...float64) []float64 {
		v := noise(n)
		for i := range v {
			if i%5 == 2 {
				v[i] = specials[(i/5)%len(specials)]
			}
		}
		return v
	}
	return [][]byte{
		seed(8, 8, 1, noise(64)),
		seed(4, 6, 2, step),
		seed(16, 5, 4, salted(80, math.NaN(), math.Inf(1), math.Inf(-1))),
		seed(3, 4, 3, salted(64, math.SmallestNonzeroFloat64, -5e-324, 2.2e-308)),
		seed(8, 10, 1, salted(96, 1e300, -1e300, math.MaxFloat64)),
		seed(2, 2, 2, []float64{0, 0, 0, 0, 1, 1, 1, 1, 0, 0}),
	}
}

// updateCorpus rewrites the committed FuzzAnomalyDetector seed files:
//
//	go test ./internal/timeseries -run FuzzCorpus -update-corpus
var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed anomaly-detector fuzz seeds")

// TestAnomalyFuzzCorpusCommitted regenerates (under -update-corpus) and
// then verifies the committed seed files.
func TestAnomalyFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzAnomalyDetector")
	for i, s := range fuzzAnomalySeeds() {
		path := filepath.Join(dir, fmt.Sprintf("seed_%02d", i))
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s))
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("fuzz seed %s missing or stale (%v); run with -update-corpus", path, err)
		}
	}
}

func TestAnomalyDetectorWarmup(t *testing.T) {
	d, err := NewAnomalyDetector(AnomalyConfig{Alphabet: 4, Window: 10, Gram: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 19; i++ {
		if _, ok := d.Push(rng.NormFloat64()); ok {
			t.Fatalf("detector warm after %d samples", i+1)
		}
		if d.Warm() {
			t.Fatalf("Warm() true after %d samples", i+1)
		}
	}
	if _, ok := d.Push(rng.NormFloat64()); !ok {
		t.Error("detector should be warm after 2*Window samples")
	}
	if !d.Warm() {
		t.Error("Warm() should be true")
	}
}

func TestAnomalyDetectorDetectsChange(t *testing.T) {
	// Steady noise, then a loud structured tone: the score during the tone
	// onset should exceed the steady-state score by a wide margin.
	rng := rand.New(rand.NewSource(8))
	cfg := AnomalyConfig{Alphabet: 8, Window: 100, Gram: 2}
	const n = 4000
	series := make([]float64, n)
	for i := range series {
		series[i] = rng.NormFloat64() * 0.1
		if i >= 2000 && i < 2600 {
			series[i] += 2 * math.Sin(2*math.Pi*float64(i)/20)
		}
	}
	scores, err := Scores(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var steady, onset float64
	for i := 1000; i < 1900; i++ {
		steady = math.Max(steady, scores[i])
	}
	for i := 2050; i < 2300; i++ {
		onset = math.Max(onset, scores[i])
	}
	if onset < steady*2 {
		t.Errorf("onset score %v not clearly above steady max %v", onset, steady)
	}
}

func TestAnomalyDetectorHandlesNaNInf(t *testing.T) {
	d, err := NewAnomalyDetector(AnomalyConfig{Alphabet: 4, Window: 5, Gram: 2})
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{1, math.NaN(), 2, math.Inf(1), 3, math.Inf(-1), 4, 5, 6, 7, 8, 9, 10}
	for _, x := range vals {
		s, _ := d.Push(x)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("score became non-finite after pushing %v", x)
		}
	}
}

func TestAnomalyDetectorConstantSignal(t *testing.T) {
	d, _ := NewAnomalyDetector(AnomalyConfig{Alphabet: 8, Window: 10, Gram: 2})
	for i := 0; i < 100; i++ {
		s, ok := d.Push(5.0)
		if ok && s != 0 {
			t.Fatalf("constant signal should score 0, got %v", s)
		}
	}
}

func TestAnomalyConfigValidation(t *testing.T) {
	if _, err := NewAnomalyDetector(AnomalyConfig{Alphabet: 8, Window: 2, Gram: 3}); err == nil {
		t.Error("gram > window should be rejected")
	}
	if _, err := NewAnomalyDetector(AnomalyConfig{Alphabet: 1, Window: 10, Gram: 1}); err == nil {
		t.Error("alphabet 1 should be rejected")
	}
	d, err := NewAnomalyDetector(AnomalyConfig{})
	if err != nil {
		t.Fatalf("zero config should apply defaults: %v", err)
	}
	cfg := d.cfg
	if cfg.Alphabet != 8 || cfg.Window != 100 || cfg.Gram != 1 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestDefaultAnomalyConfigMatchesPaper(t *testing.T) {
	cfg := DefaultAnomalyConfig()
	if cfg.Alphabet != 8 {
		t.Errorf("paper uses SAX alphabet 8, got %d", cfg.Alphabet)
	}
	if cfg.Window != 100 {
		t.Errorf("paper uses anomaly window 100, got %d", cfg.Window)
	}
}

// Property: scores are always in [0, sqrt(2)] and finite for arbitrary
// finite input.
func TestQuickAnomalyScoreBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		cfg := AnomalyConfig{
			Alphabet: 2 + rng.Intn(10),
			Window:   4 + rng.Intn(30),
			Gram:     1 + rng.Intn(3),
		}
		d, err := NewAnomalyDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			x := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)-3))
			s, ok := d.Push(x)
			if !ok {
				continue
			}
			if s < 0 || s > math.Sqrt2+1e-9 || math.IsNaN(s) {
				t.Fatalf("trial %d cfg %+v: score %v out of range", trial, cfg, s)
			}
		}
	}
}

func BenchmarkAnomalyDetectorPush(b *testing.B) {
	d, err := NewAnomalyDetector(DefaultAnomalyConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 4096)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Push(samples[i&4095])
	}
}
