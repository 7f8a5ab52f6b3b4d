package pipeline

import (
	"time"

	"repro/internal/obs"
	"repro/internal/record"
)

// LatencyTracer records data-plane record latencies into lock-free
// atomic histograms as records reach a pipeline's sink stage. Two series
// per traced unit:
//
//   - unit latency: ingress stamp (streamin/merger decode time, see
//     Record.IngressNanos) to the end of the run in which the record
//     reached the sink — how long a record spent inside this process,
//     queues included;
//   - e2e latency: trace-probe origin to sink hand-off — how long the
//     stream takes from the source to here, across every hop (see
//     record.NewTraceProbe).
//
// The unit series follows the source's grain, the run: the records of
// one decoded batch share one ingress stamp, so Observe only counts them
// into a pending span, and the span closes with one clock read and one
// Histogram.ObserveN when the run ends (EndRun) or the stamp changes.
// A span closed at every run end never charges the idle time before the
// next run to the last one. Trace probes keep their own clock read. None
// of it allocates, so tracing preserves the 0 allocs/record contract of
// the pooled transport path. A nil tracer no-ops, keeping untraced
// pipelines untouched.
//
// The pending span is not synchronized: Observe and EndRun are called
// from the pipeline's emitting goroutine, serialized like its Emits.
type LatencyTracer struct {
	unit *obs.Histogram
	e2e  *obs.Histogram

	stamp   int64  // ingress stamp of the pending span
	pending uint64 // records counted into the pending span
}

// NewLatencyTracer returns a tracer writing to reg under
// dynriver_unit_latency_seconds and dynriver_e2e_latency_seconds,
// labeled with the unit name. A nil registry yields a nil tracer.
func NewLatencyTracer(reg *obs.Registry, unit string) *LatencyTracer {
	if reg == nil {
		return nil
	}
	reg.Help("dynriver_unit_latency_seconds", "record latency from local ingress to the end of the run that reached the unit's sink stage")
	reg.Help("dynriver_e2e_latency_seconds", "trace-probe latency from stream origin to this unit's sink stage")
	return &LatencyTracer{
		unit: reg.Histogram("dynriver_unit_latency_seconds", obs.LatencyBuckets, "unit", unit),
		e2e:  reg.Histogram("dynriver_e2e_latency_seconds", obs.LatencyBuckets, "unit", unit),
	}
}

// Observe counts one record about to reach the sink into the pending
// span, first closing the span when the record's ingress stamp differs
// from it. Unstamped records count toward nothing; a trace probe is
// observed into the e2e series at once.
func (t *LatencyTracer) Observe(r *record.Record) {
	if t == nil {
		return
	}
	if r.IngressNanos > 0 {
		if r.IngressNanos != t.stamp {
			t.EndRun()
			t.stamp = r.IngressNanos
		}
		t.pending++
	}
	if record.IsTraceProbe(r) {
		if origin, err := record.TraceOrigin(r); err == nil {
			if d := time.Now().UnixNano() - origin; d >= 0 {
				t.e2e.Observe(float64(d) / 1e9)
			}
		}
	}
}

// EndRun closes the pending span: every record counted into it is
// observed with the latency from its ingress stamp to now.
func (t *LatencyTracer) EndRun() {
	if t == nil || t.pending == 0 {
		return
	}
	if d := time.Now().UnixNano() - t.stamp; d >= 0 {
		t.unit.ObserveN(float64(d)/1e9, t.pending)
	}
	t.pending = 0
}

// UnitQuantile returns the q-quantile estimate of the unit latency
// series, in seconds (0 with no observations or on a nil tracer).
func (t *LatencyTracer) UnitQuantile(q float64) float64 {
	if t == nil {
		return 0
	}
	return t.unit.Quantile(q)
}

// E2EQuantile returns the q-quantile estimate of the end-to-end series,
// in seconds (0 when no probes have arrived or on a nil tracer).
func (t *LatencyTracer) E2EQuantile(q float64) float64 {
	if t == nil {
		return 0
	}
	return t.e2e.Quantile(q)
}

// E2ECount returns how many trace probes this tracer has observed.
func (t *LatencyTracer) E2ECount() uint64 {
	if t == nil {
		return 0
	}
	return t.e2e.Count()
}

// ProbeSource wraps a source and injects a latency trace probe into its
// output every Interval, stamping each probe with the wall-clock origin.
// The pipeline's terminal tracer reads the origin back to measure true
// end-to-end latency. Probes are control records outside any scope, so
// they are safe at arbitrary stream positions; at a few per second they
// are invisible in the per-record allocation budget.
type ProbeSource struct {
	Source Source
	// Interval between probes; <= 0 selects DefaultProbeInterval.
	Interval time.Duration
}

// DefaultProbeInterval is the probe spacing used when none is set.
const DefaultProbeInterval = time.Second

// Name implements Source.
func (p *ProbeSource) Name() string { return p.Source.Name() + "+probes" }

// PreservesSeq delegates to the wrapped source, so wrapping a
// sequence-preserving relay (e.g. a streamin feeding replica legs) does
// not re-stamp upstream tags.
func (p *ProbeSource) PreservesSeq() bool {
	if sp, ok := p.Source.(SeqPreserver); ok {
		return sp.PreservesSeq()
	}
	return false
}

// RecyclesRecords delegates to the wrapped source. Probes themselves
// are pool-backed, so a recycling pipeline hands them back like any other
// record; under a non-recycling source they are simply collected.
func (p *ProbeSource) RecyclesRecords() bool {
	if rs, ok := p.Source.(RecycledSource); ok {
		return rs.RecyclesRecords()
	}
	return false
}

// Recycle delegates to the wrapped source (see RecyclesRecords).
func (p *ProbeSource) Recycle(r *record.Record) {
	if rs, ok := p.Source.(RecycledSource); ok {
		rs.Recycle(r)
	}
}

// Close closes the wrapped source when it supports closing, so pipeline
// shutdown can unwind a blocking source through the wrapper.
func (p *ProbeSource) Close() error {
	if c, ok := p.Source.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Run pumps the wrapped source, interleaving trace probes.
func (p *ProbeSource) Run(out Emitter) error {
	interval := p.Interval
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	next := time.Now().Add(interval)
	return p.Source.Run(EmitterFunc(func(r *record.Record) error {
		if now := time.Now(); now.After(next) {
			next = now.Add(interval)
			if err := out.Emit(record.NewTraceProbe(now.UnixNano())); err != nil {
				return err
			}
		}
		return out.Emit(r)
	}))
}
