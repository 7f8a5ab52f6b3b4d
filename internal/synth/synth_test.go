package synth

import (
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

func TestCatalogMatchesTable1(t *testing.T) {
	cat := Catalog()
	if len(cat) != 10 {
		t.Fatalf("catalog has %d species, want 10", len(cat))
	}
	wantCodes := []string{"AMGO", "BCCH", "BLJA", "DOWO", "HOFI", "MODO", "NOCA", "RWBL", "TUTI", "WBNU"}
	for i, want := range wantCodes {
		if cat[i].Code != want {
			t.Errorf("species %d code = %q, want %q", i, cat[i].Code, want)
		}
		if cat[i].Name == "" {
			t.Errorf("species %s has no common name", cat[i].Code)
		}
		if len(cat[i].Syllables) == 0 {
			t.Errorf("species %s has no syllables", cat[i].Code)
		}
	}
}

func TestByCode(t *testing.T) {
	sp, err := ByCode("NOCA")
	if err != nil || sp.Name != "Northern cardinal" {
		t.Errorf("ByCode(NOCA) = %+v, %v", sp, err)
	}
	if _, err := ByCode("XXXX"); err == nil {
		t.Error("unknown code should error")
	}
}

func TestAllSyllablesInCutoutBand(t *testing.T) {
	// Every grammar frequency (including harmonics that matter) must sit
	// inside the paper's [1.2 kHz, 9.6 kHz) analysis band.
	for _, sp := range Catalog() {
		for i, sy := range sp.Syllables {
			lo, hi := sy.F0, sy.F0
			if sy.F1 > 0 {
				if sy.F1 < lo {
					lo = sy.F1
				}
				if sy.F1 > hi {
					hi = sy.F1
				}
			}
			if lo < 1200*0.85 { // jitter margin
				t.Errorf("%s syllable %d: low frequency %v leaves the band", sp.Code, i, lo)
			}
			if hi > 9600/1.1 {
				t.Errorf("%s syllable %d: high frequency %v leaves the band", sp.Code, i, hi)
			}
		}
	}
}

func TestRenderProducesAudio(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sp := range Catalog() {
		voc := sp.Render(rng, StandardSampleRate)
		if len(voc) < StandardSampleRate/10 {
			t.Errorf("%s vocalization only %d samples", sp.Code, len(voc))
		}
		if dsp.Peak(voc) < 0.1 {
			t.Errorf("%s vocalization too quiet: peak %v", sp.Code, dsp.Peak(voc))
		}
	}
}

func TestRenderJitterVariesRenditions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sp, _ := ByCode("AMGO")
	a := sp.Render(rng, StandardSampleRate)
	b := sp.Render(rng, StandardSampleRate)
	if len(a) == len(b) {
		// Same length is possible but both length and content matching
		// would mean jitter is broken.
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("two renditions are bit-identical; jitter not applied")
		}
	}
}

func TestRenderAtLeast(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sp, _ := ByCode("BCCH")
	voc := sp.RenderAtLeast(rng, StandardSampleRate, 2.0)
	if float64(len(voc)) < 2.0*StandardSampleRate {
		t.Errorf("RenderAtLeast returned %d samples, want >= %d", len(voc), 2*StandardSampleRate)
	}
}

func TestSpeciesSpectrallyDistinct(t *testing.T) {
	// The dominant frequency band of each species' rendition should vary
	// across the catalog — a sanity check that the grammars do not all
	// collapse to the same signature.
	rng := rand.New(rand.NewSource(4))
	domBins := make(map[string]int)
	for _, sp := range Catalog() {
		voc := sp.RenderAtLeast(rng, StandardSampleRate, 1.0)
		sg, err := dsp.ComputeSpectrogram(voc, dsp.SpectrogramConfig{
			SampleRate: StandardSampleRate,
			FrameLen:   1024,
		})
		if err != nil {
			t.Fatalf("%s: %v", sp.Code, err)
		}
		// Aggregate magnitude per bin across frames.
		agg := make([]float64, sg.Bins())
		for _, col := range sg.Columns {
			for f, m := range col {
				agg[f] += m
			}
		}
		best := 0
		for f, m := range agg {
			if m > agg[best] {
				best = f
			}
		}
		domBins[sp.Code] = best
	}
	distinct := make(map[int]bool)
	for _, b := range domBins {
		distinct[b/8] = true // 192 Hz granularity
	}
	if len(distinct) < 5 {
		t.Errorf("species dominant bands too similar: %v", domBins)
	}
}

func TestGenerateClipBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	clip, err := GenerateClip(rng, ClipConfig{Seconds: 5, Events: 3})
	if err != nil {
		t.Fatal(err)
	}
	if clip.SampleRate != StandardSampleRate {
		t.Errorf("sample rate = %v", clip.SampleRate)
	}
	if len(clip.Samples) != 5*StandardSampleRate {
		t.Errorf("samples = %d", len(clip.Samples))
	}
	if clip.Seconds() != 5 {
		t.Errorf("Seconds = %v", clip.Seconds())
	}
	if len(clip.Events) == 0 || len(clip.Events) > 3 {
		t.Errorf("events = %d", len(clip.Events))
	}
	for i, e := range clip.Events {
		if e.Start < 0 || e.End > len(clip.Samples) || e.Start >= e.End {
			t.Errorf("event %d out of bounds: %+v", i, e)
		}
		if i > 0 && e.Start < clip.Events[i-1].Start {
			t.Error("events not sorted")
		}
	}
	if p := dsp.Peak(clip.Samples); p > 0.99+1e-9 {
		t.Errorf("clip peak %v exceeds headroom", p)
	}
}

func TestGenerateClipEventsDoNotOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	clip, err := GenerateClip(rng, ClipConfig{Seconds: 20, Events: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(clip.Events); i++ {
		if clip.Events[i].Start < clip.Events[i-1].End {
			t.Errorf("events %d and %d overlap: %+v %+v", i-1, i, clip.Events[i-1], clip.Events[i])
		}
	}
}

func TestGenerateClipRestrictedSpecies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clip, err := GenerateClip(rng, ClipConfig{Seconds: 10, Events: 4, Species: []string{"NOCA"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range clip.Events {
		if e.Species != "NOCA" {
			t.Errorf("unexpected species %q", e.Species)
		}
	}
}

func TestGenerateClipBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if _, err := GenerateClip(rng, ClipConfig{Seconds: -1}); err == nil {
		t.Error("negative duration should error")
	}
	if _, err := GenerateClip(rng, ClipConfig{Seconds: 1, Species: []string{"BAD!"}, Events: 1}); err == nil {
		t.Error("unknown species should error")
	}
}

func TestClipDeterministicPerSeed(t *testing.T) {
	a, err := GenerateClip(rand.New(rand.NewSource(42)), ClipConfig{Seconds: 2, Events: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateClip(rand.New(rand.NewSource(42)), ClipConfig{Seconds: 2, Events: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("lengths differ")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed produced different clips")
		}
	}
}

func TestStation(t *testing.T) {
	st := NewStation("kbs-01", 1, ClipConfig{Seconds: 1, Events: 1})
	c1, id1, err := st.NextClip()
	if err != nil {
		t.Fatal(err)
	}
	c2, id2, err := st.NextClip()
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Errorf("clip ids must be unique: %q %q", id1, id2)
	}
	if id1 != "kbs-01-000000" {
		t.Errorf("id format = %q", id1)
	}
	if len(c1.Samples) != len(c2.Samples) {
		t.Logf("clip lengths differ (fine): %d vs %d", len(c1.Samples), len(c2.Samples))
	}
}

func TestBackgroundStaysBelowBand(t *testing.T) {
	// Wind noise must concentrate below the 1.2 kHz cutout floor so it is
	// discarded by the spectral pipeline, as in the paper.
	rng := rand.New(rand.NewSource(9))
	bg := make([]float64, 1<<15)
	AddBackground(bg, rng, StandardSampleRate, 0.05)
	plan, err := dsp.NewFFTPlan(16384)
	if err != nil {
		t.Fatal(err)
	}
	spec := make([]complex128, 16384)
	if err := plan.RealTo(spec, bg[:16384]); err != nil {
		t.Fatal(err)
	}
	mags := make([]float64, 8192)
	dsp.MagnitudesInto(mags, spec[:8192])
	binHz := float64(StandardSampleRate) / 16384
	var below, above float64
	for f, m := range mags {
		hz := float64(f) * binHz
		if hz < 1200 {
			below += m * m
		} else {
			above += m * m
		}
	}
	if below < 2*above {
		t.Errorf("background energy below band %v should dominate above %v", below, above)
	}
}

func BenchmarkGenerateClip30s(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateClip(rng, ClipConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
