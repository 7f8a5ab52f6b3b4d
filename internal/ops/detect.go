package ops

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/timeseries"
)

// changeDetector is the common surface of the sequential change detectors
// in internal/timeseries (CUSUM, Page-Hinkley).
type changeDetector interface {
	Push(x float64) (stat float64, alarm bool)
	Reset()
	Seen() uint64
}

// ChangeDetectConfig parameterizes the ChangeDetect operator.
type ChangeDetectConfig struct {
	// Detector selects the algorithm: "cusum" (default) or "page-hinkley".
	Detector string
	// Feature selects the per-record scalar fed to the detector:
	// "rms" (default), "energy" or "mean" of the Float64s payload.
	Feature string
	// Alpha is the exponential decay of the baseline estimate (default
	// 0.05: the baseline remembers roughly the last 20 records).
	Alpha float64
	// Warmup is the number of records folded into the baseline before
	// alarms may fire (default 32).
	Warmup int
	// MinSigma, when positive, floors the baseline deviation so near-flat
	// features (a silent station) cannot turn tiny wiggles into alarms.
	MinSigma float64
}

func (c ChangeDetectConfig) withDefaults() ChangeDetectConfig {
	if c.Detector == "" {
		c.Detector = "cusum"
	}
	if c.Feature == "" {
		c.Feature = "rms"
	}
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.Warmup == 0 {
		c.Warmup = 32
	}
	return c
}

// ChangeDetect is a pipeline operator that watches a scalar feature of the
// record stream (by default the per-record RMS of the audio or spectrum
// payload) with a sequential change detector, and flags sustained shifts as
// acoustic-event alerts. Every record passes through unchanged; when the
// detector alarms, a SubtypeAnomaly record carrying {feature value, test
// statistic} follows the triggering record, and the operator's alert
// counter — surfaced through pipeline.AlertCounter into heartbeats and the
// coordinator's event stream — increments.
//
// Unlike SAXAnomaly, the baseline deliberately survives clip boundaries:
// the operator models the station, not the clip, so it can flag a shift
// that only becomes visible across clips (a failing microphone, a new
// noise source).
type ChangeDetect struct {
	cfg    ChangeDetectConfig
	det    changeDetector
	alerts atomic.Uint64
	buf    []float64 // decode scratch
}

// NewChangeDetect returns the operator with the given configuration.
func NewChangeDetect(cfg ChangeDetectConfig) (*ChangeDetect, error) {
	cfg = cfg.withDefaults()
	var det changeDetector
	switch cfg.Detector {
	case "cusum":
		c, err := timeseries.NewCUSUM(cfg.Alpha, cfg.Warmup)
		if err != nil {
			return nil, fmt.Errorf("changedetect: %w", err)
		}
		c.MinSigma = cfg.MinSigma
		det = c
	case "page-hinkley":
		p, err := timeseries.NewPageHinkley(cfg.Alpha, cfg.Warmup)
		if err != nil {
			return nil, fmt.Errorf("changedetect: %w", err)
		}
		p.MinSigma = cfg.MinSigma
		det = p
	default:
		return nil, fmt.Errorf("changedetect: unknown detector %q (want cusum or page-hinkley)", cfg.Detector)
	}
	switch cfg.Feature {
	case "rms", "energy", "mean":
	default:
		return nil, fmt.Errorf("changedetect: unknown feature %q (want rms, energy or mean)", cfg.Feature)
	}
	return &ChangeDetect{cfg: cfg, det: det}, nil
}

// Name implements pipeline.Operator.
func (o *ChangeDetect) Name() string { return "changedetect" }

// Alerts implements pipeline.AlertCounter: the number of alarms raised
// since construction. Safe to call concurrently with Process.
func (o *ChangeDetect) Alerts() uint64 { return o.alerts.Load() }

// Process implements pipeline.Operator.
func (o *ChangeDetect) Process(r *record.Record, out pipeline.Emitter) error {
	if r.Kind != record.KindData || r.PayloadType != record.PayloadFloat64 {
		return out.Emit(r)
	}
	v, err := o.feature(r)
	if err != nil {
		return fmt.Errorf("changedetect: %w", err)
	}
	stat, alarm := o.det.Push(v)
	// The alert record inherits the triggering record's scope so cutters
	// and scope repair downstream treat it as part of the same clip; take
	// it before r is handed off.
	scope, st := r.Scope, r.ScopeType
	if err := out.Emit(r); err != nil {
		return err
	}
	if !alarm {
		return nil
	}
	o.alerts.Add(1)
	ar := newData(record.SubtypeAnomaly, scope, st)
	ar.SetFloat64s([]float64{v, stat})
	return out.Emit(ar)
}

// feature reduces the record's Float64s payload to the configured scalar.
// An empty payload scores zero (a valid observation of silence).
func (o *ChangeDetect) feature(r *record.Record) (float64, error) {
	vals, err := r.AppendFloat64s(o.buf[:0])
	if err != nil {
		return 0, err
	}
	o.buf = vals
	if len(vals) == 0 {
		return 0, nil
	}
	var sum float64
	switch o.cfg.Feature {
	case "mean":
		for _, x := range vals {
			sum += x
		}
		return sum / float64(len(vals)), nil
	default: // rms, energy
		for _, x := range vals {
			sum += x * x
		}
		if o.cfg.Feature == "energy" {
			return sum, nil
		}
		return math.Sqrt(sum / float64(len(vals))), nil
	}
}
