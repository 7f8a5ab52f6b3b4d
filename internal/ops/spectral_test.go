package ops

import (
	"context"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/synth"
	"repro/internal/wav"
)

// emitEnsemble builds a scoped ensemble stream from raw samples and pushes
// it through the given operators, returning the collector.
func runSpectral(t *testing.T, samples []float64, sampleRate float64, opsList []pipeline.Operator) *EnsembleCollector {
	t.Helper()
	col := NewEnsembleCollector()
	src := sourceFunc(func(out pipeline.Emitter) error {
		clipOpen := record.NewOpenScope(record.ScopeClip, 0)
		clipOpen.SetContext(map[string]string{record.CtxSampleRate: "24576"})
		if err := out.Emit(clipOpen); err != nil {
			return err
		}
		ensOpen := record.NewOpenScope(record.ScopeEnsemble, 1)
		ensOpen.SetContext(map[string]string{
			record.CtxSampleRate: "24576",
			record.CtxSpecies:    "TEST",
		})
		if err := out.Emit(ensOpen); err != nil {
			return err
		}
		for start := 0; start < len(samples); start += RecordSamples {
			end := start + RecordSamples
			if end > len(samples) {
				break // spectral path expects full records
			}
			r := record.NewData(record.SubtypeAudio)
			r.Scope = 2
			r.ScopeType = record.ScopeEnsemble
			r.SetFloat64s(samples[start:end])
			if err := out.Emit(r); err != nil {
				return err
			}
		}
		if err := out.Emit(record.NewCloseScope(record.ScopeEnsemble, 1)); err != nil {
			return err
		}
		return out.Emit(record.NewCloseScope(record.ScopeClip, 0))
	})
	p := pipeline.New().SetSource(src).AppendOps("spectral", opsList...).SetSink(col)
	if err := p.Run(context.Background()); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return col
}

func TestSpectralPipelinePaperGeometry(t *testing.T) {
	// 7 records of audio -> reslice 13 -> 4 patterns of 3 records each
	// (one record dropped), 1050 features per pattern.
	samples := make([]float64, 7*RecordSamples)
	dsp.AddTone(samples, synth.StandardSampleRate, 2400, 0.5, 0)
	col := runSpectral(t, samples, synth.StandardSampleRate, SpectralOps(1))
	ens := col.Ensembles()
	if len(ens) != 1 {
		t.Fatalf("ensembles = %d", len(ens))
	}
	if len(ens[0].Patterns) != 4 {
		t.Fatalf("patterns = %d, want 4", len(ens[0].Patterns))
	}
	for i, p := range ens[0].Patterns {
		if len(p) != 1050 {
			t.Errorf("pattern %d has %d features, want 1050", i, len(p))
		}
	}
	if ens[0].Species != "TEST" {
		t.Errorf("species = %q", ens[0].Species)
	}
}

func TestSpectralPipelineWithPAA(t *testing.T) {
	samples := make([]float64, 7*RecordSamples)
	dsp.AddTone(samples, synth.StandardSampleRate, 3600, 0.5, 0)
	col := runSpectral(t, samples, synth.StandardSampleRate, SpectralOps(10))
	ens := col.Ensembles()
	if len(ens) != 1 {
		t.Fatalf("ensembles = %d", len(ens))
	}
	for i, p := range ens[0].Patterns {
		if len(p) != 105 {
			t.Errorf("pattern %d has %d features, want 105", i, len(p))
		}
	}
}

func TestSpectralPatternPeaksAtToneFrequency(t *testing.T) {
	const freq = 4800.0
	samples := make([]float64, 7*RecordSamples)
	dsp.AddTone(samples, synth.StandardSampleRate, freq, 0.5, 0)
	col := runSpectral(t, samples, synth.StandardSampleRate, SpectralOps(1))
	ens := col.Ensembles()
	if len(ens) != 1 || len(ens[0].Patterns) == 0 {
		t.Fatal("no patterns")
	}
	// Features are 3 concatenated cutout records of 350 bins each; bin 0
	// of a record is 1200 Hz, 24 Hz per bin.
	for pi, p := range ens[0].Patterns {
		for rec := 0; rec < 3; rec++ {
			seg := p[rec*350 : (rec+1)*350]
			peak := 0
			for i, v := range seg {
				if v > seg[peak] {
					peak = i
				}
			}
			gotHz := 1200 + float64(peak)*24
			if math.Abs(gotHz-freq) > 48 {
				t.Fatalf("pattern %d record %d: peak at %v Hz, want %v", pi, rec, gotHz, freq)
			}
		}
	}
}

func TestResliceInsertsOverlap(t *testing.T) {
	op := NewReslice()
	var got []*record.Record
	out := pipeline.EmitterFunc(func(r *record.Record) error {
		got = append(got, r)
		return nil
	})
	open := record.NewOpenScope(record.ScopeEnsemble, 1)
	if err := op.Process(open, out); err != nil {
		t.Fatal(err)
	}
	mk := func(vals ...float64) *record.Record {
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s(vals)
		return r
	}
	for _, r := range []*record.Record{mk(1, 2, 3, 4), mk(5, 6, 7, 8), mk(9, 10, 11, 12)} {
		if err := op.Process(r, out); err != nil {
			t.Fatal(err)
		}
	}
	// open + r1 + overlap(r1,r2) + r2 + overlap(r2,r3) + r3 = 6 records.
	if len(got) != 6 {
		t.Fatalf("got %d records, want 6", len(got))
	}
	ov1, err := got[2].Float64s()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 4, 5, 6}
	for i := range want {
		if ov1[i] != want[i] {
			t.Fatalf("overlap = %v, want %v", ov1, want)
		}
	}
}

func TestResliceResetsPerEnsemble(t *testing.T) {
	op := NewReslice()
	var count int
	out := pipeline.EmitterFunc(func(r *record.Record) error {
		if r.Kind == record.KindData {
			count++
		}
		return nil
	})
	mk := func() *record.Record {
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s([]float64{1, 2})
		return r
	}
	// Ensemble 1: two records -> 3 data records out.
	op.Process(record.NewOpenScope(record.ScopeEnsemble, 1), out)
	op.Process(mk(), out)
	op.Process(mk(), out)
	op.Process(record.NewCloseScope(record.ScopeEnsemble, 1), out)
	// Ensemble 2: first record must NOT overlap with ensemble 1's last.
	op.Process(record.NewOpenScope(record.ScopeEnsemble, 1), out)
	op.Process(mk(), out)
	op.Process(record.NewCloseScope(record.ScopeEnsemble, 1), out)
	if count != 4 {
		t.Errorf("data records = %d, want 4 (3 + 1, no cross-ensemble overlap)", count)
	}
}

func TestCutoutBinMath(t *testing.T) {
	op := NewCutout(0, 0) // paper band
	var got []float64
	out := pipeline.EmitterFunc(func(r *record.Record) error {
		if r.Kind == record.KindData {
			v, err := r.Float64s()
			if err != nil {
				return err
			}
			got = v
		}
		return nil
	})
	open := record.NewOpenScope(record.ScopeClip, 0)
	open.SetContext(map[string]string{record.CtxSampleRate: "24576"})
	if err := op.Process(open, out); err != nil {
		t.Fatal(err)
	}
	spec := record.NewData(record.SubtypeSpectrum)
	mags := make([]float64, 1024)
	for i := range mags {
		mags[i] = float64(i)
	}
	spec.SetFloat64s(mags)
	if err := op.Process(spec, out); err != nil {
		t.Fatal(err)
	}
	if len(got) != 350 {
		t.Fatalf("cutout kept %d bins, want 350", len(got))
	}
	if got[0] != 50 || got[349] != 399 {
		t.Errorf("cutout bins [%v, %v], want [50, 399]", got[0], got[349])
	}
}

func TestCutoutWithoutSampleRateFails(t *testing.T) {
	op := NewCutout(0, 0)
	out := pipeline.EmitterFunc(func(*record.Record) error { return nil })
	spec := record.NewData(record.SubtypeSpectrum)
	spec.SetFloat64s(make([]float64, 64))
	if err := op.Process(spec, out); err == nil {
		t.Error("cutout without sample rate context should fail")
	}
}

func TestCutoutEmptyBand(t *testing.T) {
	op := NewCutout(9000, 9001) // narrower than one bin at this length
	out := pipeline.EmitterFunc(func(*record.Record) error { return nil })
	open := record.NewOpenScope(record.ScopeClip, 0)
	open.SetContext(map[string]string{record.CtxSampleRate: "24576"})
	if err := op.Process(open, out); err != nil {
		t.Fatal(err)
	}
	spec := record.NewData(record.SubtypeSpectrum)
	spec.SetFloat64s(make([]float64, 16))
	if err := op.Process(spec, out); err == nil {
		t.Error("empty band should fail loudly")
	}
}

func TestWelchWindowCachesPerLength(t *testing.T) {
	op := NewWelchWindow()
	out := pipeline.EmitterFunc(func(*record.Record) error { return nil })
	for _, n := range []int{64, 128, 64} {
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s(make([]float64, n))
		if err := op.Process(r, out); err != nil {
			t.Fatal(err)
		}
	}
	if len(op.win) != 2 {
		t.Errorf("cached %d windows, want 2", len(op.win))
	}
}

func TestDFTPassthroughForNonComplex(t *testing.T) {
	var passed *record.Record
	out := pipeline.EmitterFunc(func(r *record.Record) error {
		passed = r
		return nil
	})
	r := record.NewData(record.SubtypeAudio)
	r.SetFloat64s([]float64{1, 2})
	if err := NewDFT().Process(r, out); err != nil {
		t.Fatal(err)
	}
	if passed != r {
		t.Error("non-complex record should pass through unchanged")
	}
}

func TestRec2VectDropsPartialGroups(t *testing.T) {
	op := NewRec2Vect(3)
	var patterns int
	out := pipeline.EmitterFunc(func(r *record.Record) error {
		if r.Kind == record.KindData && r.Subtype == record.SubtypePattern {
			patterns++
		}
		return nil
	})
	op.Process(record.NewOpenScope(record.ScopeEnsemble, 1), out)
	for i := 0; i < 5; i++ { // 5 records -> 1 pattern + 2 dropped
		r := record.NewData(record.SubtypeSpectrum)
		r.SetFloat64s([]float64{1, 2, 3})
		if err := op.Process(r, out); err != nil {
			t.Fatal(err)
		}
	}
	op.Process(record.NewCloseScope(record.ScopeEnsemble, 1), out)
	if patterns != 1 {
		t.Errorf("patterns = %d, want 1", patterns)
	}
}

func TestEndToEndExtractAndFeaturize(t *testing.T) {
	// The full Figure 5 path in one in-process pipeline: clip ->
	// extraction segment -> spectral segment -> patterns.
	rng := rand.New(rand.NewSource(21))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{
		Seconds: 15,
		Events:  2,
		Species: []string{"NOCA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	extractOps, cutter, err := ExtractionOps(DefaultExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	col := NewEnsembleCollector()
	src := clipSource{Clip{ID: "e2e", SampleRate: clip.SampleRate, Samples: clip.Samples, Species: "NOCA"}}
	p := pipeline.New().
		SetSource(src).
		AppendOps("extract", extractOps...).
		AppendOps("spectral", SpectralOps(10)...).
		SetSink(col)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ens := col.Ensembles()
	if len(ens) == 0 {
		t.Fatal("no ensembles")
	}
	totalPatterns := 0
	for _, e := range ens {
		totalPatterns += len(e.Patterns)
		for _, pat := range e.Patterns {
			if len(pat) != 105 {
				t.Fatalf("pattern length %d, want 105", len(pat))
			}
		}
	}
	if totalPatterns == 0 {
		t.Fatal("no patterns produced")
	}
	if cutter.Reduction() < 0.4 {
		t.Errorf("reduction = %v", cutter.Reduction())
	}
}

func TestWAVSourceRoundTrip(t *testing.T) {
	// Encode a clip to WAV, decode through WAVSource, compare samples.
	rng := rand.New(rand.NewSource(22))
	orig := make([]float64, 4096)
	dsp.AddTone(orig, 24576, 2400, 0.5, 0)
	dsp.AddWhiteNoise(orig, rng, 0.05)
	pcm := dsp.ToPCM16(orig)

	var buf wavBuffer
	if err := encodeWAV(&buf, 24576, pcm); err != nil {
		t.Fatal(err)
	}
	src := &WAVSource{R: &buf, ClipID: "fromwav"}
	var samples []float64
	var sawOpen bool
	sink := pipeline.SinkFunc{SinkName: "chk", Fn: func(r *record.Record) error {
		switch {
		case r.Kind == record.KindOpenScope:
			sawOpen = true
			if r.ContextValue(record.CtxSampleRate) != "24576" {
				t.Errorf("sample rate ctx = %q", r.ContextValue(record.CtxSampleRate))
			}
			if r.ContextValue(record.CtxClipID) != "fromwav" {
				t.Errorf("clip id ctx = %q", r.ContextValue(record.CtxClipID))
			}
		case r.Kind == record.KindData:
			v, err := r.Float64s()
			if err != nil {
				return err
			}
			samples = append(samples, v...)
		}
		return nil
	}}
	p := pipeline.New().SetSource(src).SetSink(sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !sawOpen {
		t.Error("no clip scope emitted")
	}
	if len(samples) != len(orig) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(orig))
	}
	for i := range orig {
		if math.Abs(samples[i]-orig[i]) > 2.0/32768 {
			t.Fatalf("sample %d: %v vs %v", i, samples[i], orig[i])
		}
	}
}

func TestReadoutDataFeedRoundTrip(t *testing.T) {
	var buf wavBuffer
	readout := NewReadout(&buf)
	recs := []*record.Record{
		record.NewOpenScope(record.ScopeClip, 0),
		record.NewCloseScope(record.ScopeClip, 0),
	}
	for _, r := range recs {
		if err := readout.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	if readout.Count() != 2 {
		t.Errorf("Count = %d", readout.Count())
	}
	feed := &DataFeed{R: &buf}
	var n int
	sink := pipeline.SinkFunc{SinkName: "n", Fn: func(*record.Record) error {
		n++
		return nil
	}}
	p := pipeline.New().SetSource(feed).SetSink(sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("replayed %d records, want 2", n)
	}
}

// wavBuffer is a minimal in-memory io.ReadWriter.
type wavBuffer struct {
	data []byte
	off  int
}

func (b *wavBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *wavBuffer) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func encodeWAV(w io.Writer, rate int, samples []int16) error {
	return wav.Encode(w, wav.Format{SampleRate: rate, Channels: 1}, samples)
}

// TestSpectralOpsAllocs pins the per-record operators of the spectral
// segment at zero allocations per record in steady state on pooled input:
// every record comes from the record pool and the downstream owner
// releases what it receives, as in a hosted spectral unit.
func TestSpectralOpsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins run without -race")
	}
	rng := rand.New(rand.NewSource(5))
	samples := make([]float64, RecordSamples)
	spectrum := make([]complex128, RecordSamples)
	for i := range samples {
		samples[i] = rng.NormFloat64()
		spectrum[i] = complex(samples[i], rng.NormFloat64())
	}
	audio := func(r *record.Record) {
		r.Subtype = record.SubtypeAudio
		r.SetFloat64s(samples)
	}
	complexAudio := func(r *record.Record) {
		r.Subtype = record.SubtypeAudio
		r.SetComplex128s(spectrum)
	}
	magnitudes := func(r *record.Record) {
		r.Subtype = record.SubtypeSpectrum
		r.SetFloat64s(samples)
	}
	cutout := NewCutout(0, 0)
	open := record.NewOpenScope(record.ScopeClip, 0)
	open.SetContext(map[string]string{record.CtxSampleRate: "24576"})
	if err := cutout.Process(open, pipeline.EmitterFunc(func(*record.Record) error { return nil })); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		op   pipeline.Operator
		fill func(*record.Record)
	}{
		{NewWelchWindow(), audio},
		{NewFloat2Cplx(), audio},
		{NewDFT(), complexAudio},
		{NewCAbs(), complexAudio},
		{cutout, magnitudes},
	} {
		fed, emitted := 0, 0
		release := pipeline.EmitterFunc(func(r *record.Record) error {
			emitted++
			record.Release(r)
			return nil
		})
		feed := func() {
			r := record.GetRecord()
			r.Kind = record.KindData
			tc.fill(r)
			fed++
			if err := tc.op.Process(r, release); err != nil {
				t.Fatalf("%s: %v", tc.op.Name(), err)
			}
		}
		// Warm: scratch buffers and pooled payloads reach working size.
		for i := 0; i < 4; i++ {
			feed()
		}
		if allocs := testing.AllocsPerRun(50, feed); allocs != 0 {
			t.Errorf("%s allocates %.1f per record, want 0", tc.op.Name(), allocs)
		}
		if emitted != fed {
			t.Errorf("%s emitted %d records for %d", tc.op.Name(), emitted, fed)
		}
	}
}
