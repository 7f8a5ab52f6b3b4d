package ops

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/synth"
)

// paperPathDigest is the sha256 over the wire bytes of every record the
// paper path (ExtractionOps then SpectralOps(10)) emits for the seeded
// clips of TestPaperPathStreamDigest. It pins the float codec, the FFT,
// record pooling and every header field in one place: a change to any of
// them that alters one output bit changes the digest. Regenerate only on
// a deliberate change to the paper path's output.
const paperPathDigest = "7b5b4ff307a1028ca9313fa5e8c9d104723180ae93b30ee74f00f6de812be0ea"

// TestPaperPathStreamDigest runs seeded synthetic clips through the
// paper's extract and spectral operators, and hashes every emitted record
// at a sink that releases it after encoding, as a hosted pipeline's sink
// does.
func TestPaperPathStreamDigest(t *testing.T) {
	extract, cutter, err := ExtractionOps(DefaultExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	seg := pipeline.NewSegment("paper", append(extract, SpectralOps(10)...)...)
	h := sha256.New()
	patterns := 0
	sink := pipeline.EmitterFunc(func(r *record.Record) error {
		if r.Kind == record.KindData && r.Subtype == record.SubtypePattern {
			patterns++
		}
		h.Write(record.AppendBatchWire(nil, r))
		record.Release(r)
		return nil
	})
	feed := pipeline.EmitterFunc(func(r *record.Record) error {
		return seg.ProcessOne(r, sink)
	})
	for seed := int64(1); seed <= 6; seed++ {
		clip, err := synth.GenerateClip(rand.New(rand.NewSource(seed)), synth.ClipConfig{
			Seconds: 4,
			Events:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := EmitClip(feed, &Clip{
			ID:         "digest",
			SampleRate: clip.SampleRate,
			Samples:    clip.Samples,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.FlushAll(sink); err != nil {
		t.Fatal(err)
	}
	if cutter.ensembles == 0 || patterns == 0 {
		t.Fatalf("%d ensembles, %d patterns: the digest would pin no spectral output", cutter.ensembles, patterns)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != paperPathDigest {
		t.Errorf("paper-path stream digest %s, want %s (%d ensembles, %d patterns)",
			got, paperPathDigest, cutter.ensembles, patterns)
	}
}
