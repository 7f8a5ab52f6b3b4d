package dsp

import (
	"fmt"
	"math"
	"strings"
)

// Spectrogram is a time-frequency magnitude matrix: Columns[t][f] is the
// magnitude of frequency bin f in frame t. BinHz is the width of one
// frequency bin; HopSec the time advance between frames.
type Spectrogram struct {
	Columns [][]float64
	BinHz   float64
	HopSec  float64
}

// SpectrogramConfig controls ComputeSpectrogram.
type SpectrogramConfig struct {
	SampleRate float64    // samples per second; must be > 0
	FrameLen   int        // samples per DFT frame; must be > 0
	Hop        int        // samples between frame starts; default FrameLen/2
	Window     WindowFunc // default WindowWelch
}

// ComputeSpectrogram renders the magnitude spectrogram of a real signal.
func ComputeSpectrogram(signal []float64, cfg SpectrogramConfig) (*Spectrogram, error) {
	if len(signal) == 0 {
		return nil, ErrEmptyInput
	}
	if cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("dsp: sample rate %v must be positive", cfg.SampleRate)
	}
	if cfg.FrameLen <= 0 {
		return nil, fmt.Errorf("dsp: frame length %d must be positive", cfg.FrameLen)
	}
	if cfg.Hop == 0 {
		cfg.Hop = cfg.FrameLen / 2
	}
	if cfg.Hop <= 0 {
		return nil, fmt.Errorf("dsp: hop %d must be positive", cfg.Hop)
	}
	if cfg.Window == 0 {
		cfg.Window = WindowWelch
	}
	bins := cfg.FrameLen / 2 // the non-redundant half for real input
	win, err := NewWindow(cfg.Window, cfg.FrameLen)
	if err != nil {
		return nil, err
	}
	nFrames := 0
	if len(signal) >= cfg.FrameLen {
		nFrames = (len(signal)-cfg.FrameLen)/cfg.Hop + 1
	}
	if nFrames == 0 {
		return nil, fmt.Errorf("dsp: signal shorter than one frame (%d < %d)", len(signal), cfg.FrameLen)
	}
	plan, err := NewFFTPlan(cfg.FrameLen)
	if err != nil {
		return nil, err
	}
	sg := &Spectrogram{
		BinHz:   cfg.SampleRate / float64(cfg.FrameLen),
		HopSec:  float64(cfg.Hop) / cfg.SampleRate,
		Columns: make([][]float64, nFrames),
	}
	// One backing array carries every column, and the frame/spectrum
	// scratch is reused across frames: the whole render performs a fixed
	// handful of allocations regardless of frame count.
	backing := make([]float64, nFrames*bins)
	frame := make([]float64, cfg.FrameLen)
	spec := make([]complex128, cfg.FrameLen)
	for i, start := 0, 0; i < nFrames; i, start = i+1, start+cfg.Hop {
		copy(frame, signal[start:start+cfg.FrameLen])
		if err := win.ApplyTo(frame); err != nil {
			return nil, err
		}
		if err := plan.RealTo(spec, frame); err != nil {
			return nil, err
		}
		col := backing[i*bins : (i+1)*bins : (i+1)*bins]
		MagnitudesInto(col, spec[:bins])
		sg.Columns[i] = col
	}
	return sg, nil
}

// Frames returns the number of time frames.
func (s *Spectrogram) Frames() int { return len(s.Columns) }

// Bins returns the number of frequency bins per frame (0 when empty).
func (s *Spectrogram) Bins() int {
	if len(s.Columns) == 0 {
		return 0
	}
	return len(s.Columns[0])
}

// MaxMagnitude returns the largest magnitude in the spectrogram.
func (s *Spectrogram) MaxMagnitude() float64 {
	var m float64
	for _, col := range s.Columns {
		for _, v := range col {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// ASCII renders the spectrogram as rows of shade characters, high
// frequencies first, resampled to at most width x height cells. It backs
// the Figure 2/3 reproductions when no image viewer is available.
func (s *Spectrogram) ASCII(width, height int) string {
	if s.Frames() == 0 || s.Bins() == 0 || width <= 0 || height <= 0 {
		return ""
	}
	shades := []byte(" .:-=+*#%@")
	maxMag := s.MaxMagnitude()
	if maxMag <= 0 {
		maxMag = 1
	}
	if width > s.Frames() {
		width = s.Frames()
	}
	if height > s.Bins() {
		height = s.Bins()
	}
	var sb strings.Builder
	for row := 0; row < height; row++ {
		// Row 0 is the highest frequency band.
		fLo := (height - 1 - row) * s.Bins() / height
		fHi := (height - row) * s.Bins() / height
		for colIdx := 0; colIdx < width; colIdx++ {
			tLo := colIdx * s.Frames() / width
			tHi := (colIdx + 1) * s.Frames() / width
			// Max-pooling: bird vocalizations are spectrally sparse, and
			// averaging a narrow tone over a whole cell would wash it out.
			var v float64
			for t := tLo; t < tHi; t++ {
				for f := fLo; f < fHi; f++ {
					if s.Columns[t][f] > v {
						v = s.Columns[t][f]
					}
				}
			}
			// Log compression spreads the dynamic range over the shades.
			level := math.Log1p(9*v/maxMag) / math.Log(10)
			idx := int(level * float64(len(shades)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			sb.WriteByte(shades[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// PGM renders the spectrogram as a binary PGM (P5) image, high frequencies
// at the top, for viewing outside the terminal.
func (s *Spectrogram) PGM() []byte {
	w, h := s.Frames(), s.Bins()
	if w == 0 || h == 0 {
		return nil
	}
	maxMag := s.MaxMagnitude()
	if maxMag <= 0 {
		maxMag = 1
	}
	header := fmt.Sprintf("P5\n%d %d\n255\n", w, h)
	out := make([]byte, 0, len(header)+w*h)
	out = append(out, header...)
	for row := 0; row < h; row++ {
		f := h - 1 - row
		for t := 0; t < w; t++ {
			level := math.Log1p(9*s.Columns[t][f]/maxMag) / math.Log(10)
			px := int(level * 255)
			if px < 0 {
				px = 0
			}
			if px > 255 {
				px = 255
			}
			out = append(out, byte(px))
		}
	}
	return out
}
