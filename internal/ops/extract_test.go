package ops

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/synth"
)

// runPipeline pushes a clip through the extraction segment and returns the
// collector and cutter.
func runExtraction(t *testing.T, clip *synth.Clip, cfg ExtractConfig) (*EnsembleCollector, *Cutter) {
	t.Helper()
	ops, cutter, err := ExtractionOps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := NewEnsembleCollector()
	src := NewClipSource(Clip{
		ID:         "test",
		SampleRate: clip.SampleRate,
		Samples:    clip.Samples,
	})
	p := pipeline.New().SetSource(src).AppendOps("extract", ops...).SetSink(col)
	if err := p.Run(context.Background()); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return col, cutter
}

func TestExtractionFindsVocalizations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{
		Seconds: 20,
		Events:  3,
		Species: []string{"NOCA", "BCCH"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(clip.Events) < 2 {
		t.Fatalf("clip has only %d events", len(clip.Events))
	}
	col, cutter := runExtraction(t, clip, DefaultExtractConfig())
	ensembles := col.Ensembles()
	if len(ensembles) == 0 {
		t.Fatal("no ensembles extracted")
	}
	// Every ground-truth event should overlap at least one ensemble.
	matched := 0
	for _, ev := range clip.Events {
		evStart := float64(ev.Start) / clip.SampleRate
		evEnd := float64(ev.End) / clip.SampleRate
		for _, e := range ensembles {
			eStart := e.StartSec
			eEnd := e.StartSec + float64(len(e.Samples))/clip.SampleRate
			if eStart < evEnd && evStart < eEnd {
				matched++
				break
			}
		}
	}
	if matched < len(clip.Events) {
		t.Errorf("only %d of %d events matched by an ensemble", matched, len(clip.Events))
	}
	// Extraction must reduce the data substantially (the paper reports
	// ~80%; synthetic clips vary, so assert a broad band).
	red := cutter.Reduction()
	if red < 0.4 || red >= 1 {
		t.Errorf("reduction = %v, want within [0.4, 1)", red)
	}
	if cutter.SamplesIn() != uint64(len(clip.Samples)) {
		t.Errorf("SamplesIn = %d, want %d", cutter.SamplesIn(), len(clip.Samples))
	}
}

func TestExtractionQuietClipYieldsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{
		Seconds:       10,
		Events:        1, // config requires >= 1; silence below
		Species:       []string{"NOCA"},
		NoiseLevel:    0.02,
		TransientRate: 0.0001,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite with pure stationary noise: no events at all.
	quiet := make([]float64, len(clip.Samples))
	synth.AddBackground(quiet, rng, clip.SampleRate, 0.02)
	clip.Samples = quiet

	col, cutter := runExtraction(t, clip, DefaultExtractConfig())
	if n := len(col.Ensembles()); n > 2 {
		t.Errorf("stationary noise produced %d ensembles; expected at most a couple of false alarms", n)
	}
	if red := cutter.Reduction(); red < 0.95 {
		t.Errorf("quiet clip reduction = %v, want >= 0.95", red)
	}
}

func TestExtractionScopesWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{Seconds: 10, Events: 2})
	if err != nil {
		t.Fatal(err)
	}
	ops, _, err := ExtractionOps(DefaultExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := record.NewTracker()
	var ensembleOpens int
	validate := pipeline.SinkFunc{SinkName: "validate", Fn: func(r *record.Record) error {
		if err := tr.Observe(r); err != nil {
			return err
		}
		if r.Kind == record.KindOpenScope && r.ScopeType == record.ScopeEnsemble {
			ensembleOpens++
			if r.Scope != 1 {
				t.Errorf("ensemble scope depth = %d, want 1", r.Scope)
			}
		}
		return nil
	}}
	src := NewClipSource(Clip{ID: "t", SampleRate: clip.SampleRate, Samples: clip.Samples})
	p := pipeline.New().SetSource(src).AppendOps("extract", ops...).SetSink(validate)
	if err := p.Run(context.Background()); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if tr.Depth() != 0 {
		t.Errorf("stream ended with %d open scopes", tr.Depth())
	}
}

func TestExtractionGroundTruthPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	sp, _ := synth.ByCode("RWBL")
	voc := sp.RenderAtLeast(rng, synth.StandardSampleRate, 1.0)
	// Embed in noise with margins.
	samples := make([]float64, len(voc)+2*synth.StandardSampleRate)
	synth.AddBackground(samples, rng, synth.StandardSampleRate, 0.02)
	copy(samples[synth.StandardSampleRate:], voc)

	ops, _, err := ExtractionOps(DefaultExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	col := NewEnsembleCollector()
	src := NewClipSource(Clip{
		ID:         "labelled",
		SampleRate: synth.StandardSampleRate,
		Samples:    samples,
		Species:    "RWBL",
	})
	p := pipeline.New().SetSource(src).AppendOps("extract", ops...).SetSink(col)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ens := col.Ensembles()
	if len(ens) == 0 {
		t.Fatal("no ensembles")
	}
	for i, e := range ens {
		if e.Species != "RWBL" {
			t.Errorf("ensemble %d species = %q, want RWBL", i, e.Species)
		}
		if e.SampleRate != synth.StandardSampleRate {
			t.Errorf("ensemble %d sample rate = %v", i, e.SampleRate)
		}
	}
}

func TestTriggerAdaptiveBaseline(t *testing.T) {
	cfg := DefaultExtractConfig()
	cfg.TriggerWarmup = 50
	cfg.TriggerHangover = 3
	trig := NewTrigger(cfg)
	// Feed a scope open to reset, then scores: a quiet baseline then a
	// spike well above it.
	var got [][]float64
	out := pipeline.EmitterFunc(func(r *record.Record) error {
		if r.Kind == record.KindData && r.Subtype == record.SubtypeTrigger {
			v, err := r.Float64s()
			if err != nil {
				return err
			}
			got = append(got, v)
		}
		return nil
	})
	open := record.NewOpenScope(record.ScopeClip, 0)
	if err := trig.Process(open, out); err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, 200)
	for i := range scores {
		scores[i] = 0.01 + 0.001*float64(i%7)
	}
	for i := 100; i < 140; i++ {
		scores[i] = 0.8 // event
	}
	sr := record.NewData(record.SubtypeAnomaly)
	sr.SetFloat64s(scores)
	if err := trig.Process(sr, out); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d trigger records", len(got))
	}
	tv := got[0]
	for i := 0; i < 100; i++ {
		if tv[i] != 0 {
			t.Fatalf("trigger[%d] = %v before event", i, tv[i])
		}
	}
	armed := 0
	for i := 100; i < 140; i++ {
		if tv[i] == 1 {
			armed++
		}
	}
	if armed < 35 {
		t.Errorf("trigger armed on %d of 40 event samples", armed)
	}
	for i := 145; i < 200; i++ {
		if tv[i] != 0 {
			t.Fatalf("trigger[%d] = %v after event", i, tv[i])
		}
	}
}

func TestCutterMinEnsembleRecords(t *testing.T) {
	cfg := DefaultExtractConfig()
	cfg.MinEnsembleRecords = 3
	cutter := NewCutter(cfg)
	col := NewEnsembleCollector()

	emitTo := func(r *record.Record) error { return col.Consume(r) }
	out := pipeline.EmitterFunc(emitTo)

	open := record.NewOpenScope(record.ScopeClip, 0)
	open.SetContext(map[string]string{record.CtxSampleRate: "24576"})
	if err := cutter.Process(open, out); err != nil {
		t.Fatal(err)
	}
	// One record of audio with a short trigger-high run (1 record long:
	// below the minimum).
	audio := record.NewData(record.SubtypeAudio)
	audio.SetFloat64s(make([]float64, RecordSamples))
	if err := cutter.Process(audio, out); err != nil {
		t.Fatal(err)
	}
	trig := record.NewData(record.SubtypeTrigger)
	tv := make([]float64, RecordSamples)
	for i := 100; i < 300; i++ {
		tv[i] = 1
	}
	trig.SetFloat64s(tv)
	if err := cutter.Process(trig, out); err != nil {
		t.Fatal(err)
	}
	if err := cutter.Process(record.NewCloseScope(record.ScopeClip, 0), out); err != nil {
		t.Fatal(err)
	}
	if n := len(col.Ensembles()); n != 0 {
		t.Errorf("short run produced %d ensembles despite MinEnsembleRecords=3", n)
	}
}

// TestCutterClipClose feeds four trigger-high records and then closes the
// clip: a normal close completes the ensemble in progress, an abnormal one
// (the clip cut off upstream) drops it unemitted.
func TestCutterClipClose(t *testing.T) {
	for _, tc := range []struct {
		name      string
		close     *record.Record
		ensembles int
		kinds     []record.Kind
	}{
		{"normal close", record.NewCloseScope(record.ScopeClip, 0), 1, []record.Kind{
			record.KindOpenScope, record.KindOpenScope,
			record.KindData, record.KindData, record.KindData, record.KindData,
			record.KindCloseScope, record.KindCloseScope,
		}},
		{"bad close", record.NewBadCloseScope(record.ScopeClip, 0), 0, []record.Kind{
			record.KindOpenScope, record.KindBadCloseScope,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cutter := NewCutter(DefaultExtractConfig())
			col := NewEnsembleCollector()
			var kinds []record.Kind
			out := pipeline.EmitterFunc(func(r *record.Record) error {
				kinds = append(kinds, r.Kind)
				return col.Consume(r)
			})
			open := record.NewOpenScope(record.ScopeClip, 0)
			open.SetContext(map[string]string{record.CtxSampleRate: "24576"})
			if err := cutter.Process(open, out); err != nil {
				t.Fatal(err)
			}
			high := make([]float64, RecordSamples)
			for i := range high {
				high[i] = 1
			}
			for i := 0; i < 4; i++ {
				audio := record.NewData(record.SubtypeAudio)
				audio.SetFloat64s(make([]float64, RecordSamples))
				trig := record.NewData(record.SubtypeTrigger)
				trig.SetFloat64s(high)
				for _, r := range []*record.Record{audio, trig} {
					if err := cutter.Process(r, out); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := cutter.Process(tc.close, out); err != nil {
				t.Fatal(err)
			}
			if n := len(col.Ensembles()); n != tc.ensembles {
				t.Errorf("%d ensembles, want %d", n, tc.ensembles)
			}
			if !slices.Equal(kinds, tc.kinds) {
				t.Errorf("emitted %v, want %v", kinds, tc.kinds)
			}
		})
	}
}

// TestExtractOpsAllocs pins the steady state of the two scoring operators
// on pooled records: the score and trigger records they emit come from the
// record pool, and the trigger releases the score record it consumes, so
// once the downstream owner releases what it receives neither allocates.
func TestExtractOpsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins run without -race")
	}
	cfg := DefaultExtractConfig()
	sax, err := NewSAXAnomaly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trig := NewTrigger(cfg)
	// keep copies the scores out and releases the score record, as the
	// trigger would; discard releases whatever it is handed.
	var scores []float64
	keep := pipeline.EmitterFunc(func(r *record.Record) error {
		if r.Subtype == record.SubtypeAnomaly {
			scores, _ = r.AppendFloat64s(scores[:0])
			record.Release(r)
		}
		return nil
	})
	triggers := 0
	discard := pipeline.EmitterFunc(func(r *record.Record) error {
		if r.Subtype == record.SubtypeTrigger && len(r.Payload) == 8*RecordSamples {
			triggers++
		}
		record.Release(r)
		return nil
	})
	// scoreRecord builds a fresh pooled score record per call: the
	// trigger releases each one it consumes.
	scoreRecord := func() *record.Record {
		sr := record.GetRecord()
		sr.Kind = record.KindData
		sr.Subtype = record.SubtypeAnomaly
		sr.SetFloat64s(scores)
		return sr
	}
	rng := rand.New(rand.NewSource(3))
	samples := make([]float64, RecordSamples)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	audio := record.NewData(record.SubtypeAudio)
	audio.SetFloat64s(samples)
	for _, op := range []pipeline.Operator{sax, trig} {
		if err := op.Process(record.NewOpenScope(record.ScopeClip, 0), discard); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: the scratch buffers reach their working size.
	for i := 0; i < 4; i++ {
		if err := sax.Process(audio, keep); err != nil {
			t.Fatal(err)
		}
		if err := trig.Process(scoreRecord(), discard); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := sax.Process(audio, keep); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SAXAnomaly.Process allocates %.1f per audio record, want 0", allocs)
	}
	calls := 4
	if allocs := testing.AllocsPerRun(50, func() {
		calls++
		if err := trig.Process(scoreRecord(), discard); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Trigger.Process allocates %.1f per score record, want 0", allocs)
	}
	if triggers != calls {
		t.Errorf("%d trigger records for %d score records", triggers, calls)
	}
}

func TestCutterTriggerWithoutAudioFails(t *testing.T) {
	cutter := NewCutter(DefaultExtractConfig())
	out := pipeline.EmitterFunc(func(*record.Record) error { return nil })
	open := record.NewOpenScope(record.ScopeClip, 0)
	if err := cutter.Process(open, out); err != nil {
		t.Fatal(err)
	}
	trig := record.NewData(record.SubtypeTrigger)
	trig.SetFloat64s([]float64{1, 1, 1})
	if err := cutter.Process(trig, out); err == nil {
		t.Error("trigger without pending audio should fail")
	}
}

func TestEnsembleCollectorDiscardsBadClose(t *testing.T) {
	col := NewEnsembleCollector()
	open := record.NewOpenScope(record.ScopeEnsemble, 1)
	if err := col.Consume(open); err != nil {
		t.Fatal(err)
	}
	data := record.NewData(record.SubtypeAudio)
	data.SetFloat64s([]float64{1, 2, 3})
	if err := col.Consume(data); err != nil {
		t.Fatal(err)
	}
	bad := record.NewBadCloseScope(record.ScopeEnsemble, 1)
	if err := col.Consume(bad); err != nil {
		t.Fatal(err)
	}
	if len(col.Ensembles()) != 0 {
		t.Error("bad-closed ensemble should be discarded")
	}
	if col.Discarded() != 1 {
		t.Errorf("Discarded = %d", col.Discarded())
	}
}

func TestSAXAnomalyEmitsScorePerAudioRecord(t *testing.T) {
	sax, err := NewSAXAnomaly(DefaultExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	var kinds []uint16
	out := pipeline.EmitterFunc(func(r *record.Record) error {
		if r.Kind == record.KindData {
			kinds = append(kinds, r.Subtype)
		}
		return nil
	})
	open := record.NewOpenScope(record.ScopeClip, 0)
	if err := sax.Process(open, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s(make([]float64, 512))
		if err := sax.Process(r, out); err != nil {
			t.Fatal(err)
		}
	}
	want := []uint16{
		record.SubtypeAudio, record.SubtypeAnomaly,
		record.SubtypeAudio, record.SubtypeAnomaly,
		record.SubtypeAudio, record.SubtypeAnomaly,
	}
	if len(kinds) != len(want) {
		t.Fatalf("emitted %d data records, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("record %d subtype = %d, want %d", i, kinds[i], want[i])
		}
	}
}

func TestRecordCounter(t *testing.T) {
	c := NewRecordCounter()
	open := record.NewOpenScope(record.ScopeClip, 0)
	if err := c.Consume(open); err != nil {
		t.Fatal(err)
	}
	d := record.NewData(record.SubtypeAudio)
	d.SetFloat64s([]float64{1, 2})
	if err := c.Consume(d); err != nil {
		t.Fatal(err)
	}
	if c.Kind(record.KindOpenScope) != 1 || c.Kind(record.KindData) != 1 {
		t.Error("kind counts wrong")
	}
	if c.Subtype(record.SubtypeAudio) != 1 {
		t.Error("subtype count wrong")
	}
	if c.PayloadBytes() != 16 {
		t.Errorf("PayloadBytes = %d", c.PayloadBytes())
	}
}
