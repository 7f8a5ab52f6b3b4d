package ops

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/synth"
)

// TestExtractionSurvivesNaNSamples injects NaN/Inf samples into a clip:
// the pipeline must neither panic nor emit structurally invalid streams.
func TestExtractionSurvivesNaNSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{Seconds: 6, Events: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt scattered samples, as a flaky ADC would.
	for i := 1000; i < len(clip.Samples); i += 7919 {
		clip.Samples[i] = math.NaN()
	}
	for i := 2500; i < len(clip.Samples); i += 13337 {
		clip.Samples[i] = math.Inf(1)
	}
	opsList, _, err := ExtractionOps(DefaultExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	tracker := record.NewTracker()
	sink := pipeline.SinkFunc{SinkName: "v", Fn: func(r *record.Record) error {
		return tracker.Observe(r)
	}}
	src := clipSource{Clip{ID: "nan", SampleRate: clip.SampleRate, Samples: clip.Samples}}
	p := pipeline.New().SetSource(src).AppendOps("extract", opsList...).SetSink(sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatalf("pipeline with NaN input: %v", err)
	}
	if tracker.Depth() != 0 {
		t.Errorf("scopes left open: %d", tracker.Depth())
	}
}

// TestExtractionZeroVarianceClip: a perfectly silent clip (all zeros) has
// zero variance everywhere; nothing should trigger and nothing should
// divide by zero.
func TestExtractionZeroVarianceClip(t *testing.T) {
	opsList, cutter, err := ExtractionOps(DefaultExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	col := NewEnsembleCollector()
	src := clipSource{Clip{
		ID:         "silence",
		SampleRate: synth.StandardSampleRate,
		Samples:    make([]float64, 5*synth.StandardSampleRate),
	}}
	p := pipeline.New().SetSource(src).AppendOps("extract", opsList...).SetSink(col)
	if err := p.Run(context.Background()); err != nil {
		t.Fatalf("silent clip: %v", err)
	}
	if n := len(col.Ensembles()); n != 0 {
		t.Errorf("silence produced %d ensembles", n)
	}
	if red := cutter.Reduction(); red != 1 {
		t.Errorf("silence reduction = %v, want 1", red)
	}
}

// TestClipSourceRejectsBadRate: a clip without a sample rate must fail
// loudly, not produce unscaled context.
func TestClipSourceRejectsBadRate(t *testing.T) {
	src := clipSource{Clip{ID: "bad", Samples: []float64{1, 2, 3}}}
	sink := pipeline.SinkFunc{SinkName: "null", Fn: func(*record.Record) error { return nil }}
	p := pipeline.New().SetSource(src).SetSink(sink)
	if err := p.Run(context.Background()); err == nil {
		t.Error("zero sample rate should fail")
	}
}

// TestSpectralPipelineHandlesDCOnlyEnsemble: an ensemble of constant
// samples has all its energy at DC, which the cutout discards entirely;
// patterns must still have the right dimensionality (all zeros), not
// collapse.
func TestSpectralPipelineHandlesDCOnlyEnsemble(t *testing.T) {
	samples := make([]float64, 7*RecordSamples)
	for i := range samples {
		samples[i] = 0.5
	}
	col := runSpectral(t, samples, synth.StandardSampleRate, SpectralOps(10))
	ens := col.Ensembles()
	if len(ens) != 1 {
		t.Fatalf("ensembles = %d", len(ens))
	}
	for _, p := range ens[0].Patterns {
		if len(p) != 105 {
			t.Fatalf("pattern dim = %d", len(p))
		}
		for _, v := range p {
			// The Welch window leaks a little DC into low bins; the band
			// energy must still be negligible next to the DC magnitude
			// (~343 for these records).
			if math.Abs(v) > 0.5 {
				t.Fatalf("DC-only ensemble should have ~zero band energy, got %v", v)
			}
		}
	}
}

// TestCutterIgnoresForeignScopeTypes: user-defined scopes pass through
// the extraction chain untouched.
func TestCutterIgnoresForeignScopeTypes(t *testing.T) {
	opsList, _, err := ExtractionOps(DefaultExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	seg := pipeline.NewSegment("extract", opsList...)
	var kinds []record.Kind
	sink := pipeline.EmitterFunc(func(r *record.Record) error {
		kinds = append(kinds, r.Kind)
		return nil
	})
	user := record.NewOpenScope(record.ScopeUser, 0)
	if err := seg.ProcessOne(user, sink); err != nil {
		t.Fatal(err)
	}
	userClose := record.NewCloseScope(record.ScopeUser, 0)
	if err := seg.ProcessOne(userClose, sink); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds[0] != record.KindOpenScope || kinds[1] != record.KindCloseScope {
		t.Errorf("foreign scopes not passed through: %v", kinds)
	}
}

// TestControlRecordsPassThrough: control records traverse the whole
// analysis chain unchanged, preserving out-of-band signalling.
func TestControlRecordsPassThrough(t *testing.T) {
	extractOps, _, err := ExtractionOps(DefaultExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	all := append(extractOps, SpectralOps(10)...)
	seg := pipeline.NewSegment("full", all...)
	var got *record.Record
	sink := pipeline.EmitterFunc(func(r *record.Record) error {
		got = r
		return nil
	})
	ctl := &record.Record{Kind: record.KindControl, Subtype: 77}
	if err := seg.ProcessOne(ctl, sink); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Kind != record.KindControl || got.Subtype != 77 {
		t.Errorf("control record mangled: %v", got)
	}
}
