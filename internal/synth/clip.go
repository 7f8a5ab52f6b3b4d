package synth

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dsp"
)

// StandardSampleRate is the repo's clip sample rate. It is chosen so that
// 1024-sample records are exactly 1/24 s (3 records = the paper's 0.125 s
// pattern) and the DFT bin width is exactly 24 Hz, which makes the cutout
// band [1.2 kHz, 9.6 kHz) exactly 350 bins per record — reproducing the
// paper's 1050-feature patterns.
const StandardSampleRate = 24576

// StandardClipSeconds matches the paper's ~30-second clips.
const StandardClipSeconds = 30

// Event is a ground-truth vocalization interval within a clip.
type Event struct {
	Species    string
	Start, End int // sample offsets, half-open
}

// ClipConfig controls clip generation.
type ClipConfig struct {
	// SampleRate defaults to StandardSampleRate.
	SampleRate float64
	// Seconds defaults to StandardClipSeconds.
	Seconds float64
	// Species codes to draw vocalizations from; defaults to the full
	// catalog.
	Species []string
	// Events is the number of vocalizations to place (default 4).
	Events int
	// NoiseLevel scales the ambient background (default 0.03). The
	// default signal-to-noise keeps vocalizations clearly audible, as
	// bird song near a sensor station is.
	NoiseLevel float64
	// TransientRate is the expected number of broadband transients
	// (standing in for human activity) per clip (default 1).
	TransientRate float64
	// LeadInSeconds keeps the start of the clip free of vocalization
	// events (default 0.5 s) so stream detectors have ambient signal to
	// warm up on, as a continuously recording station would provide.
	LeadInSeconds float64
}

func (c ClipConfig) withDefaults() ClipConfig {
	if c.SampleRate == 0 {
		c.SampleRate = StandardSampleRate
	}
	if c.Seconds == 0 {
		c.Seconds = StandardClipSeconds
	}
	if len(c.Species) == 0 {
		c.Species = Codes()
	}
	if c.Events == 0 {
		c.Events = 4
	}
	if c.NoiseLevel == 0 {
		c.NoiseLevel = 0.03
	}
	if c.TransientRate == 0 {
		c.TransientRate = 1
	}
	if c.LeadInSeconds == 0 {
		c.LeadInSeconds = 0.5
	}
	return c
}

// Clip is a generated acoustic clip with ground truth.
type Clip struct {
	Samples    []float64
	SampleRate float64
	Events     []Event
}

// Seconds returns the clip duration.
func (c *Clip) Seconds() float64 { return float64(len(c.Samples)) / c.SampleRate }

// GenerateClip renders a clip: ambient background plus vocalization events
// at random non-overlapping offsets. Events are returned sorted by start.
func GenerateClip(rng *rand.Rand, cfg ClipConfig) (*Clip, error) {
	cfg = cfg.withDefaults()
	n := int(cfg.Seconds * cfg.SampleRate)
	if n <= 0 {
		return nil, fmt.Errorf("synth: clip length %d must be positive", n)
	}
	samples := make([]float64, n)
	AddBackground(samples, rng, cfg.SampleRate, cfg.NoiseLevel)

	// Occasional broadband transient ("human activity"): a short loud
	// click/band burst at a random offset.
	transients := 0
	for rng.Float64() < cfg.TransientRate-float64(transients) {
		transients++
		at := rng.Intn(n)
		dur := int(0.02 * cfg.SampleRate)
		if at+dur > n {
			dur = n - at
		}
		burst := samples[at : at+dur]
		dsp.AddWhiteNoise(burst, rng, 0.4)
		dsp.ApplyEnvelope(burst, 0.1, 0.5)
	}

	var events []Event
	for i := 0; i < cfg.Events; i++ {
		code := cfg.Species[rng.Intn(len(cfg.Species))]
		sp, err := ByCode(code)
		if err != nil {
			return nil, err
		}
		voc := sp.Render(rng, cfg.SampleRate)
		if len(voc) >= n {
			voc = voc[:n/2]
		}
		// Place without overlapping previous events (best effort: try a
		// few offsets, then skip).
		leadIn := int(cfg.LeadInSeconds * cfg.SampleRate)
		if leadIn >= n-len(voc) {
			leadIn = 0
		}
		placed := false
		for attempt := 0; attempt < 20 && !placed; attempt++ {
			start := leadIn + rng.Intn(n-len(voc)-leadIn)
			ev := Event{Species: code, Start: start, End: start + len(voc)}
			if !overlapsAny(ev, events) {
				for j, v := range voc {
					samples[start+j] += v
				}
				events = append(events, ev)
				placed = true
			}
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	// Keep headroom: clips never clip (pun intended).
	if p := dsp.Peak(samples); p > 0.99 {
		dsp.Normalize(samples, 0.99)
	}
	return &Clip{Samples: samples, SampleRate: cfg.SampleRate, Events: events}, nil
}

func overlapsAny(e Event, events []Event) bool {
	// Require a guard gap so extracted ensembles stay separable.
	const gap = 4096
	for _, o := range events {
		if e.Start < o.End+gap && o.Start < e.End+gap {
			return true
		}
	}
	return false
}

// AddBackground adds the ambient model: wind (pink noise low-passed to a
// few hundred hertz, below the cutout band) plus a broadband noise floor.
func AddBackground(dst []float64, rng *rand.Rand, sampleRate, level float64) {
	wind := make([]float64, len(dst))
	dsp.AddPinkNoise(wind, rng, level*8)
	dsp.OnePoleLowPass(wind, sampleRate, 300)
	for i := range dst {
		dst[i] += wind[i]
	}
	dsp.AddWhiteNoise(dst, rng, level)
}

// Station simulates one acoustic sensor station: it produces clips on
// demand, mimicking the paper's Stargate units that record 30-second
// clips every 30 minutes. Clips are deterministic given the seed.
type Station struct {
	Name string
	cfg  ClipConfig
	rng  *rand.Rand
	seq  int
}

// NewStation returns a station with its own seeded random stream.
func NewStation(name string, seed int64, cfg ClipConfig) *Station {
	return &Station{Name: name, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// NextClip produces the station's next clip and its identifier.
func (s *Station) NextClip() (*Clip, string, error) {
	clip, err := GenerateClip(s.rng, s.cfg)
	if err != nil {
		return nil, "", err
	}
	id := fmt.Sprintf("%s-%06d", s.Name, s.seq)
	s.seq++
	return clip, id, nil
}
