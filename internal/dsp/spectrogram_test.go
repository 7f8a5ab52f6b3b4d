package dsp

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func toneSignal(n int, sampleRate, freq float64) []float64 {
	x := make([]float64, n)
	AddTone(x, sampleRate, freq, 1, 0)
	return x
}

func TestSpectrogramShape(t *testing.T) {
	sig := toneSignal(24576, 24576, 2400)
	sg, err := ComputeSpectrogram(sig, SpectrogramConfig{
		SampleRate: 24576,
		FrameLen:   1024,
		Hop:        1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sg.Frames() != 24 {
		t.Errorf("Frames = %d, want 24", sg.Frames())
	}
	if sg.Bins() != 512 {
		t.Errorf("Bins = %d, want 512", sg.Bins())
	}
	if math.Abs(sg.BinHz-24) > 1e-9 {
		t.Errorf("BinHz = %v, want 24", sg.BinHz)
	}
	if math.Abs(sg.HopSec-1024.0/24576) > 1e-12 {
		t.Errorf("HopSec = %v", sg.HopSec)
	}
}

func TestSpectrogramTonePeaksAtRightBin(t *testing.T) {
	const sr = 24576.0
	const freq = 2400.0
	sig := toneSignal(8192, sr, freq)
	sg, err := ComputeSpectrogram(sig, SpectrogramConfig{SampleRate: sr, FrameLen: 1024})
	if err != nil {
		t.Fatal(err)
	}
	wantBin := int(freq / sg.BinHz)
	for ti, col := range sg.Columns {
		peak := 0
		for f, m := range col {
			if m > col[peak] {
				peak = f
			}
		}
		if peak != wantBin {
			t.Fatalf("frame %d: peak at bin %d, want %d", ti, peak, wantBin)
		}
	}
}

func TestSpectrogramDefaultsAndBinLimit(t *testing.T) {
	sig := toneSignal(4096, 24576, 1200)
	sg, err := ComputeSpectrogram(sig, SpectrogramConfig{
		SampleRate: 24576,
		FrameLen:   1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Real input keeps the non-redundant half of each frame's bins.
	if sg.Bins() != 512 {
		t.Errorf("Bins = %d, want 512", sg.Bins())
	}
	// Default hop is FrameLen/2 = 512: frames = (4096-1024)/512 + 1 = 7.
	if sg.Frames() != 7 {
		t.Errorf("Frames = %d, want 7", sg.Frames())
	}
}

func TestSpectrogramErrors(t *testing.T) {
	if _, err := ComputeSpectrogram(nil, SpectrogramConfig{SampleRate: 1, FrameLen: 4}); err == nil {
		t.Error("empty signal should error")
	}
	sig := make([]float64, 100)
	if _, err := ComputeSpectrogram(sig, SpectrogramConfig{SampleRate: 0, FrameLen: 4}); err == nil {
		t.Error("zero sample rate should error")
	}
	if _, err := ComputeSpectrogram(sig, SpectrogramConfig{SampleRate: 1, FrameLen: 0}); err == nil {
		t.Error("zero frame length should error")
	}
	if _, err := ComputeSpectrogram(sig, SpectrogramConfig{SampleRate: 1, FrameLen: 8, Hop: -1}); err == nil {
		t.Error("negative hop should error")
	}
	if _, err := ComputeSpectrogram(sig, SpectrogramConfig{SampleRate: 1, FrameLen: 128}); err == nil {
		t.Error("signal shorter than a frame should error")
	}
}

func TestSpectrogramASCII(t *testing.T) {
	sig := toneSignal(8192, 24576, 4800)
	sg, err := ComputeSpectrogram(sig, SpectrogramConfig{SampleRate: 24576, FrameLen: 512})
	if err != nil {
		t.Fatal(err)
	}
	art := sg.ASCII(40, 12)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 12 {
		t.Fatalf("ASCII rows = %d, want 12", len(lines))
	}
	for _, l := range lines {
		if len(l) != 40 && len(l) != sg.Frames() {
			t.Fatalf("row width %d", len(l))
		}
	}
	// A pure tone at 4.8 kHz (40% of Nyquist) should darken some middle
	// row while leaving the top row nearly blank.
	if !strings.ContainsAny(art, "#%@") {
		t.Error("expected strong shading for a pure tone")
	}
	if sg.ASCII(0, 10) != "" {
		t.Error("zero width should render empty")
	}
}

func TestSpectrogramPGM(t *testing.T) {
	sig := toneSignal(4096, 24576, 2400)
	sg, err := ComputeSpectrogram(sig, SpectrogramConfig{SampleRate: 24576, FrameLen: 512})
	if err != nil {
		t.Fatal(err)
	}
	img := sg.PGM()
	if !bytes.HasPrefix(img, []byte("P5\n")) {
		t.Fatal("PGM header missing")
	}
	// Header + exactly width*height pixels.
	idx := bytes.Index(img, []byte("255\n"))
	if idx < 0 {
		t.Fatal("maxval line missing")
	}
	pixels := img[idx+4:]
	if len(pixels) != sg.Frames()*sg.Bins() {
		t.Errorf("pixel count %d, want %d", len(pixels), sg.Frames()*sg.Bins())
	}
	var empty Spectrogram
	if empty.PGM() != nil {
		t.Error("empty spectrogram PGM should be nil")
	}
}

func TestSpectrogramMaxMagnitude(t *testing.T) {
	sg := &Spectrogram{Columns: [][]float64{{1, 5, 2}, {0, 3, 4}}}
	if m := sg.MaxMagnitude(); m != 5 {
		t.Errorf("MaxMagnitude = %v, want 5", m)
	}
	var empty Spectrogram
	if empty.MaxMagnitude() != 0 || empty.Bins() != 0 || empty.Frames() != 0 {
		t.Error("empty spectrogram accessors")
	}
}

func TestSynthesisPrimitives(t *testing.T) {
	const sr = 8000.0
	x := make([]float64, 800)
	AddTone(x, sr, 440, 0.5, 0)
	if p := Peak(x); math.Abs(p-0.5) > 0.01 {
		t.Errorf("tone peak = %v, want ~0.5", p)
	}
	AddChirp(x, sr, 100, 1000, 0.25)
	if p := Peak(x); p > 0.76 {
		t.Errorf("after chirp peak = %v, want <= 0.75 + eps", p)
	}
	Normalize(x, 1)
	if math.Abs(Peak(x)-1) > 1e-9 {
		t.Errorf("normalized peak = %v", Peak(x))
	}
	zero := make([]float64, 4)
	Normalize(zero, 1) // must not divide by zero
	if Peak(zero) != 0 {
		t.Error("normalizing zeros should be a no-op")
	}
}

func TestEnvelope(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 1
	}
	ApplyEnvelope(x, 0.2, 0.2)
	if x[0] != 0 {
		t.Errorf("attack start = %v, want 0", x[0])
	}
	if x[50] != 1 {
		t.Errorf("sustain = %v, want 1", x[50])
	}
	if x[99] >= 0.1 {
		t.Errorf("decay end = %v, want near 0", x[99])
	}
	ApplyEnvelope(nil, 0.5, 0.5) // must not panic
}

func TestPCMRoundTrip(t *testing.T) {
	in := []float64{0, 0.5, -0.5, 0.999, -1}
	pcm := ToPCM16(in)
	for i := range in {
		// wav2rec (ops.WAVSource) reads a sample back as s/32768.
		if back := float64(pcm[i]) / 32768; math.Abs(back-in[i]) > 2.0/32768 {
			t.Errorf("PCM16 round trip[%d]: %v -> %v", i, in[i], back)
		}
	}
	// Clamping.
	clipped := ToPCM16([]float64{2, -2})
	if clipped[0] != 32767 || clipped[1] != -32768 {
		t.Errorf("clamping = %v", clipped)
	}
}

func TestNoiseGenerators(t *testing.T) {
	rng := newTestRand()
	white := make([]float64, 10000)
	AddWhiteNoise(white, rng, 0.5)
	if p := Peak(white); p > 0.5 || p < 0.3 {
		t.Errorf("white noise peak = %v", p)
	}
	pink := make([]float64, 10000)
	AddPinkNoise(pink, rng, 0.5)
	if Peak(pink) == 0 {
		t.Error("pink noise generated nothing")
	}
	// Pink noise should concentrate energy at low frequencies relative to
	// white noise: compare mean magnitude of the lowest and highest
	// eighths of the spectrum.
	ratio := func(x []float64) float64 {
		mags := planMagnitudes(t, x[:8192], 4096)
		lo, hi := 0.0, 0.0
		for i := 1; i < 512; i++ {
			lo += mags[i]
		}
		for i := 3584; i < 4096; i++ {
			hi += mags[i]
		}
		return lo / hi
	}
	if rp, rw := ratio(pink), ratio(white); rp < 2*rw {
		t.Errorf("pink/white low-high ratio: pink %v should exceed 2x white %v", rp, rw)
	}
}

func TestAddHarmonics(t *testing.T) {
	const sr = 24576.0
	x := make([]float64, 4096)
	AddHarmonics(x, sr, 2000, 0.5, 4, 0.5)
	mags := planMagnitudes(t, x[:2048], 1024)
	binHz := sr / 2048
	// Harmonics at 2k, 4k, 6k, 8k with decreasing magnitude.
	var prev float64 = math.Inf(1)
	for h := 1; h <= 4; h++ {
		bin := int(2000 * float64(h) / binHz)
		peak := 0.0
		for b := bin - 2; b <= bin+2; b++ {
			if mags[b] > peak {
				peak = mags[b]
			}
		}
		if peak >= prev {
			t.Errorf("harmonic %d magnitude %v not below previous %v", h, peak, prev)
		}
		if peak < 1 {
			t.Errorf("harmonic %d missing (peak %v)", h, peak)
		}
		prev = peak
	}
}

func TestOnePoleLowPass(t *testing.T) {
	const sr = 8000.0
	low := make([]float64, 4096)
	high := make([]float64, 4096)
	AddTone(low, sr, 100, 1, 0)
	AddTone(high, sr, 3000, 1, 0)
	OnePoleLowPass(low, sr, 500)
	OnePoleLowPass(high, sr, 500)
	if pl, ph := Peak(low[1000:]), Peak(high[1000:]); ph > pl/3 {
		t.Errorf("low-pass: 3 kHz peak %v should be well below 100 Hz peak %v", ph, pl)
	}
	OnePoleLowPass(nil, sr, 500) // must not panic
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(1234)) }
