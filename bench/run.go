package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/pipeline"
)

// Run shape, identical on every commit. A run measures for `seconds`:
// the untraced run spends satShare of it in the closed-loop saturation
// phase and the rest in the open-loop paced phase; each phase is cut into
// `windows` equal windows and a metric is the median of its window
// values.
const (
	windows  = 5
	satShare = 0.4
	// A traced run splits the same budget four ways: an untraced
	// saturation phase (the baseline the tracing overhead is taken
	// against), a traced saturation phase, a traced paced phase, and the
	// isolated layer probes.
	tracedBaseShare  = 0.2
	tracedSatShare   = 0.2
	tracedPacedShare = 0.3
	// warmRecords is pushed through a fresh topology before any timing:
	// connections dial, pools fill to their steady-state population and
	// the adaptive batch trigger has seen backlog.
	warmRecords = 50_000
	warmClips   = 4
)

// Result is one workload run.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Failures  failures `json:"failures"`
	// Valid is false when the open loop was not one: the generator ran
	// late by more than lateLimitMs at p99, or the sink's backlog was
	// still growing when the paced phase ended. Latencies of an invalid
	// run are reported but must not be compared.
	Valid   bool    `json:"valid"`
	Metrics Metrics `json:"metrics"`
	Trace   *Trace  `json:"trace,omitempty"`
}

// Trace is what a traced run adds to the result: the budget tables, the
// bottleneck unit and the spans themselves.
type Trace struct {
	MarkEvery  uint64             `json:"mark_every"`
	Saturation Budget             `json:"saturation_budget"`
	Paced      Budget             `json:"paced_budget"`
	Bottleneck string             `json:"bottleneck_unit"`
	WaitShares map[string]float64 `json:"source_wait_share_by_unit"`
	Spans      []Span             `json:"spans"`
}

const (
	lateLimitMs = 10.0
	// backlogLimitS: a paced phase that ends with more than this many
	// seconds of offered load still in flight has a growing backlog.
	backlogLimitS = 0.25
)

// inputs is everything a run generates from the seed before any topology
// stands up. It is built once per run and shared, read-only, by every
// set-up of that run; buildS is how long building it took.
type inputs struct {
	records *recordInputs  // the 64-byte workloads
	station *stationInputs // station_pipeline
	buildS  float64
}

func buildInputs(w workload, seed int64) (*inputs, error) {
	start := time.Now()
	in := &inputs{}
	if w.name == wlStationPipeline {
		st, err := newStationInputs(seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		in.station = st
	} else {
		in.records = newRecordInputs(seed, w)
	}
	in.buildS = time.Since(start).Seconds()
	return in, nil
}

// setUp stands the workload's topology up around a fresh oracle, pushes
// the warm-up through and collects garbage. With the inputs' build time
// it is everything that happens before the saturation phase starts.
func setUp(w workload, in *inputs, tr *tracer) (*session, error) {
	s := &session{w: w}
	var sink pipeline.Sink
	var newSender func(entry pipeline.Sink) sender
	warm := uint64(warmRecords)
	if st := in.station; st != nil {
		ss := newStationSink(st)
		sink, s.or = ss, &ss.oracle
		newSender = func(entry pipeline.Sink) sender { return newClipSender(st, entry, tr) }
		warm = warmClips * uint64(st.recsPerClip)
	} else {
		a := newRecordAudit(w.keys, 1<<26)
		sink, s.or = a, &a.oracle
		newSender = func(entry pipeline.Sink) sender { return newRecordSender(in.records, entry, tr) }
	}
	top, err := standUp(w, sink, tr)
	if err != nil {
		return nil, err
	}
	s.top = top
	s.gen = newSender(top.entry)
	if err := s.closedLoop(func(time.Time) bool { return s.next >= warm }); err != nil {
		top.stop()
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	s.drain()
	runtime.GC()
	return s, nil
}

// finish tears the session down and fills in the run's verdict: every
// input record not accounted for exactly once, intact and in order (on
// station_pipeline: in a clip whose detections equal the reference) is a
// failed record.
func (s *session) finish(res *Result) {
	s.top.stop()
	res.Attempted += s.next
	accounted := s.or.accounted.Load()
	f := s.or.fail
	if known := f.total() * s.gen.unit(); accounted+known < s.next {
		f.Missing = (s.next - accounted - known) / s.gen.unit()
	}
	res.Failures = addFailures(res.Failures, f)
	if accounted < s.next {
		res.Failed += s.next - accounted
	}
}

// pacedValid applies the open-loop validity rule.
func pacedValid(w workload, p pacedResult) (lateP99 float64, ok bool) {
	lateP99 = quantile(sortedCopy(p.lateMs), 0.99)
	ok = lateP99 <= lateLimitMs && float64(p.backlog) <= w.ratePerS*backlogLimitS
	return lateP99, ok
}

// runUntraced is the run the end-to-end metrics come from. Throughput on
// this system settles into a regime per stood-up topology (which stays
// for that topology's life and differs by a tenth or more from the next
// one's), so the saturation phase's windows are not cut from one
// topology's run: each window is a fresh set-up followed by its own
// closed-loop slice. That also yields one set-up time per window: the
// seeded inputs are built once (they are the same every time) and their
// build time counts toward each. The paced phase then runs on the last
// topology.
func runUntraced(w workload, seed int64, seconds float64) (*Result, error) {
	res := &Result{Workload: w.name, Seed: seed, Seconds: seconds, Metrics: Metrics{}}
	total := time.Duration(seconds * float64(time.Second))
	satDur := time.Duration(float64(total) * satShare)
	in, err := buildInputs(w, seed)
	if err != nil {
		return nil, err
	}
	var s *session
	var setupS []float64
	var sat satResult
	for i := 0; i < windows; i++ {
		if s != nil {
			s.finish(res)
		}
		start := time.Now()
		if s, err = setUp(w, in, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, in.buildS+time.Since(start).Seconds())
		slice, err := s.saturate(satDur/windows, 1)
		if err != nil {
			s.top.stop()
			return nil, err
		}
		sat.recordsPerS = append(sat.recordsPerS, slice.recordsPerS...)
		sat.cpuPerMrec = append(sat.cpuPerMrec, slice.cpuPerMrec...)
	}
	paced, err := s.pace(total-satDur, windows)
	if err != nil {
		s.top.stop()
		return nil, err
	}
	s.finish(res)

	_, res.Valid = pacedValid(w, paced)
	m := res.Metrics
	m["records_per_s"] = medianOf("1/s", sat.recordsPerS)
	m["cpu_s_per_mrec"] = medianOf("s/Mrec", sat.cpuPerMrec)
	m["latency_p95_ms"] = medianOf("ms", windowQuantiles(paced.latency, 0.95))
	m["setup_s"] = medianOf("s", setupS)
	return res, nil
}
