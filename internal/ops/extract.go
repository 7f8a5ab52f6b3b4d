package ops

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/timeseries"
)

// newData returns a data record from the record pool with the given
// subtype and scope position. Operators build what they emit this way, so
// the records a final owner releases come back as the next ones emitted
// instead of each costing a fresh record and payload.
func newData(subtype, scope uint16, st record.ScopeType) *record.Record {
	r := record.GetRecord()
	r.Kind = record.KindData
	r.Subtype = subtype
	r.Scope = scope
	r.ScopeType = st
	return r
}

// ExtractConfig parameterizes the saxanomaly/trigger/cutter segment. The
// defaults are the paper's settings for environmental acoustics.
type ExtractConfig struct {
	// Anomaly configures the SAX bitmap detector (paper: alphabet 8,
	// window 100).
	Anomaly timeseries.AnomalyConfig
	// SmoothWindow is the moving-average window over anomaly scores
	// (paper: 2250 samples).
	SmoothWindow int
	// TriggerSigma is the number of standard deviations above the quiet
	// mean that arms the trigger (paper: 5).
	TriggerSigma float64
	// TriggerWarmup is the number of quiet scores folded into the
	// baseline before the trigger may arm (default: SmoothWindow, so the
	// baseline sees at least one full smoothing window).
	TriggerWarmup int
	// TriggerHangover keeps the trigger armed for this many samples after
	// the score re-enters the quiet band, bridging the brief lulls
	// between syllables of one song so a vocalization extracts as one
	// ensemble instead of many slivers (default: 2*SmoothWindow).
	TriggerHangover int
	// MinEnsembleRecords drops ensembles shorter than this many audio
	// records (guards against one-record blips; default 2).
	MinEnsembleRecords int
}

// DefaultExtractConfig returns the paper's extraction parameters.
func DefaultExtractConfig() ExtractConfig {
	return ExtractConfig{
		Anomaly:            timeseries.DefaultAnomalyConfig(),
		SmoothWindow:       2250,
		TriggerSigma:       5,
		MinEnsembleRecords: 2,
	}
}

func (c ExtractConfig) withDefaults() ExtractConfig {
	if c.SmoothWindow == 0 {
		c.SmoothWindow = 2250
	}
	if c.TriggerSigma == 0 {
		c.TriggerSigma = 5
	}
	if c.TriggerWarmup == 0 {
		c.TriggerWarmup = c.SmoothWindow
	}
	if c.TriggerHangover == 0 {
		c.TriggerHangover = 2 * c.SmoothWindow
	}
	if c.MinEnsembleRecords == 0 {
		c.MinEnsembleRecords = 2
	}
	return c
}

// SAXAnomaly computes the smoothed SAX-bitmap anomaly score of the audio
// stream. For every audio data record it emits the original record
// followed by a score record (SubtypeAnomaly) of equal length. The
// detector and smoother reset at clip boundaries so clips are independent,
// matching the per-clip processing of the paper.
type SAXAnomaly struct {
	det *timeseries.AnomalyDetector
	ma  *timeseries.MovingAverage
	buf []float64 // decode scratch; scores are computed in place
}

// NewSAXAnomaly returns the operator with the given configuration.
func NewSAXAnomaly(cfg ExtractConfig) (*SAXAnomaly, error) {
	cfg = cfg.withDefaults()
	det, err := timeseries.NewAnomalyDetector(cfg.Anomaly)
	if err != nil {
		return nil, err
	}
	ma, err := timeseries.NewMovingAverage(cfg.SmoothWindow)
	if err != nil {
		return nil, err
	}
	return &SAXAnomaly{det: det, ma: ma}, nil
}

// Name implements pipeline.Operator.
func (o *SAXAnomaly) Name() string { return "saxanomaly" }

// Process implements pipeline.Operator.
func (o *SAXAnomaly) Process(r *record.Record, out pipeline.Emitter) error {
	switch {
	case r.Kind == record.KindOpenScope && r.ScopeType == record.ScopeClip:
		o.det.Reset()
		o.ma.Reset()
		return out.Emit(r)
	case r.Kind != record.KindData || r.Subtype != record.SubtypeAudio:
		return out.Emit(r)
	}
	scores, err := r.AppendFloat64s(o.buf[:0])
	if err != nil {
		return fmt.Errorf("saxanomaly: %w", err)
	}
	o.buf = scores
	for i, x := range scores {
		raw, _ := o.det.Push(x)
		scores[i] = o.ma.Push(raw)
	}
	// The score record takes its scope from r before r is handed off:
	// downstream may release r inside Emit.
	sr := newData(record.SubtypeAnomaly, r.Scope, r.ScopeType)
	sr.SetFloat64s(scores)
	if err := out.Emit(r); err != nil {
		record.Release(sr)
		return err
	}
	return out.Emit(sr)
}

// Trigger converts the smoothed anomaly score into a discrete 0/1 signal.
// It is adaptive: it incrementally estimates the mean and deviation of the
// score while the trigger is 0 (the ambient baseline) and arms when the
// score is more than TriggerSigma standard deviations from mu0 — in
// either direction, following the paper's wording. Both directions matter
// in practice: the bitmap distance of stationary ambient noise is a
// noisy positive baseline (two independent noise windows never produce
// identical empirical gram frequencies), and a structured vocalization
// drives the score *below* that baseline while its onset and offset push
// it above. Each score record is consumed (and released) and a new trigger
// record emitted in its place; all other records pass through.
type Trigger struct {
	sigma    float64
	warmup   int
	hangover int
	skipped  int
	hang     int
	quiet    *timeseries.EWStats
	buf      []float64 // decode scratch; triggers are computed in place
}

// NewTrigger returns a trigger with the paper's 5-sigma threshold when
// cfg.TriggerSigma is zero. The quiet baseline uses exponentially
// weighted statistics (time constant 4x the warmup) so an estimate
// polluted by an event at the start of a clip recovers instead of
// deafening the trigger for the rest of the clip.
func NewTrigger(cfg ExtractConfig) *Trigger {
	cfg = cfg.withDefaults()
	quiet, err := timeseries.NewEWStats(1 / float64(4*cfg.TriggerWarmup))
	if err != nil {
		// withDefaults guarantees a positive warmup.
		panic("trigger: " + err.Error())
	}
	return &Trigger{
		sigma:    cfg.TriggerSigma,
		warmup:   cfg.TriggerWarmup,
		hangover: cfg.TriggerHangover,
		quiet:    quiet,
	}
}

// Name implements pipeline.Operator.
func (o *Trigger) Name() string { return "trigger" }

// Process implements pipeline.Operator.
func (o *Trigger) Process(r *record.Record, out pipeline.Emitter) error {
	switch {
	case r.Kind == record.KindOpenScope && r.ScopeType == record.ScopeClip:
		o.quiet.Reset()
		o.skipped = 0
		o.hang = 0
		return out.Emit(r)
	case r.Kind != record.KindData || r.Subtype != record.SubtypeAnomaly:
		return out.Emit(r)
	}
	trig, err := r.AppendFloat64s(o.buf[:0])
	if err != nil {
		return fmt.Errorf("trigger: %w", err)
	}
	o.buf = trig
	for i, s := range trig {
		trig[i] = o.step(s)
	}
	// A fresh record, not r rewritten: r's wire header (Seq, SourceID)
	// belongs to the score stream, not to the trigger record.
	tr := newData(record.SubtypeTrigger, r.Scope, r.ScopeType)
	record.Release(r)
	tr.SetFloat64s(trig)
	return out.Emit(tr)
}

// step folds one smoothed score into the trigger state and returns the
// trigger value for it: 1 when armed, else 0.
func (o *Trigger) step(s float64) float64 {
	// The first scores of a clip are artifacts: exact zeros while the
	// detector warms, then a ramp while the moving average fills.
	// Folding the ramp into the baseline would inflate its deviation,
	// so skip a full warmup worth of scores outright.
	if o.skipped < o.warmup {
		o.skipped++
		return 0
	}
	// Then build the quiet baseline before arming is allowed.
	if o.quiet.Count() < uint64(o.warmup) {
		o.quiet.Add(s)
		return 0
	}
	// A deviation floor of 5% of the quiet mean keeps the trigger
	// honest: the smoothed score is strongly autocorrelated, so its
	// instantaneous deviation underestimates slow ambient wobble, and
	// an unfloored 5-sigma band ends up narrower than the background
	// drift. With the floor, arming requires the score to leave a
	// band of at least +/-25% around the quiet mean — which ambient
	// noise never does and vocalizations (50-80% dips) always do.
	sd := o.quiet.StdDev()
	if floor := 0.05 * o.quiet.Mean(); sd < floor {
		sd = floor
	}
	dev := math.Abs(s - o.quiet.Mean())
	switch {
	case dev > o.sigma*sd:
		o.hang = o.hangover
		return 1
	case o.hang > 0:
		// Hangover: the score dipped back into the quiet band, but a
		// song's syllable gap looks exactly like that. Stay armed
		// (and do not update the baseline) until the band has been
		// quiet continuously for the hangover window.
		o.hang--
		return 1
	case dev < 0.15*o.quiet.Mean():
		// Update the baseline only from scores well inside the quiet
		// band. The gate is a *fixed* fraction of the mean, not a
		// multiple of sigma: a sigma-scaled gate widens as soon as a
		// few event-edge scores leak in, which admits more event
		// scores, inflates sigma further, and deafens the trigger
		// for the rest of the clip.
		o.quiet.Add(s)
	}
	return 0
}

// Cutter composes ensembles: it pairs each audio record with the trigger
// record that follows it and emits, inside each clip scope, one ensemble
// scope per maximal trigger-high run, containing the original audio
// samples for that run. Audio outside ensembles is discarded — this is
// the data reduction the paper reports (~80%). The cutter is the final
// owner of the audio and trigger records it consumes: it copies their
// samples out and releases them.
type Cutter struct {
	cfg ExtractConfig

	sampleRate float64
	clipCtx    map[string]string
	pendAudio  []float64 // audio waiting for its trigger record
	trig       []float64 // trigger decode scratch
	absPos     int       // absolute sample position within the clip

	inEnsemble bool
	ensemble   []float64
	frame      []float64 // one emitted record's samples, len RecordSamples
	ensStart   int
	ensembles  uint64

	samplesIn   uint64
	samplesKept uint64
}

// NewCutter returns a cutter with the given configuration.
func NewCutter(cfg ExtractConfig) *Cutter {
	return &Cutter{cfg: cfg.withDefaults(), frame: make([]float64, RecordSamples)}
}

// Name implements pipeline.Operator.
func (o *Cutter) Name() string { return "cutter" }

// SamplesIn returns the number of audio samples consumed.
func (o *Cutter) SamplesIn() uint64 { return o.samplesIn }

// SamplesKept returns the number of samples emitted inside ensembles.
func (o *Cutter) SamplesKept() uint64 { return o.samplesKept }

// Reduction returns the fraction of input data discarded (the paper's
// headline ~0.806).
func (o *Cutter) Reduction() float64 {
	if o.samplesIn == 0 {
		return 0
	}
	return 1 - float64(o.samplesKept)/float64(o.samplesIn)
}

// Process implements pipeline.Operator.
func (o *Cutter) Process(r *record.Record, out pipeline.Emitter) error {
	switch {
	case r.Kind == record.KindOpenScope && r.ScopeType == record.ScopeClip:
		o.resetClip()
		if ctx, err := r.Context(); err == nil {
			o.clipCtx = ctx
			if sr, err := strconv.ParseFloat(ctx[record.CtxSampleRate], 64); err == nil {
				o.sampleRate = sr
			}
		}
		return out.Emit(r)
	case r.Kind == record.KindCloseScope && r.ScopeType == record.ScopeClip && r.Scope == 0:
		// Close any ensemble in progress, then the clip.
		if err := o.closeEnsemble(out); err != nil {
			return err
		}
		o.pendAudio = o.pendAudio[:0]
		return out.Emit(r)
	case r.Kind == record.KindBadCloseScope && r.ScopeType == record.ScopeClip && r.Scope == 0:
		// The clip was cut off upstream, so the ensemble in progress is
		// truncated: drop it rather than emit it as a complete one. None
		// of it has been emitted yet.
		o.inEnsemble = false
		o.pendAudio = o.pendAudio[:0]
		return out.Emit(r)
	case r.Kind == record.KindData && r.Subtype == record.SubtypeAudio:
		pend, err := r.AppendFloat64s(o.pendAudio)
		if err != nil {
			return fmt.Errorf("cutter: %w", err)
		}
		o.pendAudio = pend
		record.Release(r)
		return nil // audio is withheld until its trigger arrives
	case r.Kind == record.KindData && r.Subtype == record.SubtypeTrigger:
		trig, err := r.AppendFloat64s(o.trig[:0])
		if err != nil {
			return fmt.Errorf("cutter: %w", err)
		}
		o.trig = trig
		if len(trig) > len(o.pendAudio) {
			return fmt.Errorf("cutter: trigger record of %d values but only %d audio samples pending", len(trig), len(o.pendAudio))
		}
		record.Release(r)
		err = o.consume(o.pendAudio[:len(trig)], trig, out)
		// Keep the unmatched tail at the front of the buffer so it is
		// reused rather than regrown.
		o.pendAudio = o.pendAudio[:copy(o.pendAudio, o.pendAudio[len(trig):])]
		return err
	default:
		return out.Emit(r)
	}
}

func (o *Cutter) consume(audio, trig []float64, out pipeline.Emitter) error {
	for i := range audio {
		o.samplesIn++
		high := trig[i] >= 0.5
		switch {
		case high && !o.inEnsemble:
			o.inEnsemble = true
			o.ensStart = o.absPos
			o.ensemble = o.ensemble[:0]
			o.ensemble = append(o.ensemble, audio[i])
		case high:
			o.ensemble = append(o.ensemble, audio[i])
		case !high && o.inEnsemble:
			if err := o.closeEnsemble(out); err != nil {
				return err
			}
		}
		o.absPos++
	}
	return nil
}

// closeEnsemble flushes the in-progress ensemble as a scoped record
// sequence nested inside the clip scope.
func (o *Cutter) closeEnsemble(out pipeline.Emitter) error {
	if !o.inEnsemble {
		return nil
	}
	o.inEnsemble = false
	records := (len(o.ensemble) + RecordSamples - 1) / RecordSamples
	if records < o.cfg.MinEnsembleRecords {
		return nil // too short; discard
	}
	ctx := map[string]string{}
	if o.sampleRate > 0 {
		ctx[record.CtxSampleRate] = strconv.FormatFloat(o.sampleRate, 'f', -1, 64)
		ctx[record.CtxStartSec] = strconv.FormatFloat(float64(o.ensStart)/o.sampleRate, 'f', 3, 64)
	}
	if sp := o.clipCtx[record.CtxSpecies]; sp != "" {
		ctx[record.CtxSpecies] = sp
	}
	open := record.NewOpenScope(record.ScopeEnsemble, 1)
	open.SetContext(ctx)
	if err := out.Emit(open); err != nil {
		return err
	}
	for start := 0; start < len(o.ensemble); start += RecordSamples {
		n := copy(o.frame, o.ensemble[start:])
		// Zero-pad the final partial record: downstream spectral
		// operators need uniform record lengths to produce
		// fixed-dimensional patterns.
		clear(o.frame[n:])
		r := newData(record.SubtypeAudio, 2, record.ScopeEnsemble)
		r.SetFloat64s(o.frame)
		if err := out.Emit(r); err != nil {
			return err
		}
		o.samplesKept += uint64(n)
	}
	o.ensembles++
	return out.Emit(record.NewCloseScope(record.ScopeEnsemble, 1))
}

func (o *Cutter) resetClip() {
	o.sampleRate = 0
	o.clipCtx = nil
	o.pendAudio = o.pendAudio[:0]
	o.absPos = 0
	o.inEnsemble = false
	o.ensemble = o.ensemble[:0]
}
