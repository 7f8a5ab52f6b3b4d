package pipeline

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/record"
)

// TestLatencyTracerObserve drives stamped records and trace probes
// through a tracer and checks the span semantics: records sharing an
// ingress stamp are only counted until EndRun or a stamp change folds
// them in at a plausible latency, probes fill the e2e series at once, and
// unstamped records and nil tracers stay inert.
func TestLatencyTracerObserve(t *testing.T) {
	var nilTracer *LatencyTracer
	nilTracer.Observe(record.NewData(0)) // must not panic
	nilTracer.EndRun()
	if nilTracer.UnitQuantile(0.5) != 0 || nilTracer.E2EQuantile(0.5) != 0 {
		t.Fatal("nil tracer reports non-zero quantiles")
	}

	reg := obs.NewRegistry()
	tr := NewLatencyTracer(reg, "u1")
	unit := reg.Histogram("dynriver_unit_latency_seconds", obs.LatencyBuckets, "unit", "u1")

	// An unstamped record contributes to neither series.
	tr.Observe(record.NewData(record.SubtypeAudio))
	tr.EndRun()
	if got := unit.Count(); got != 0 {
		t.Fatalf("unstamped record counted: %d", got)
	}

	// Three records of one run are counted, not yet observed; the run end
	// folds all three in at their ingress-to-now delta.
	stamp := time.Now().Add(-5 * time.Millisecond).UnixNano()
	for i := 0; i < 3; i++ {
		r := record.NewData(record.SubtypeAudio)
		r.IngressNanos = stamp
		tr.Observe(r)
	}
	if got := unit.Count(); got != 0 {
		t.Fatalf("open span already observed %d records", got)
	}
	tr.EndRun()
	if got := unit.Count(); got != 3 {
		t.Fatalf("closed span observed %d records, want 3", got)
	}
	if got := tr.UnitQuantile(0.99); got < 0.004 || got > 0.2 {
		t.Errorf("unit p99 = %gs, want ~5ms", got)
	}
	tr.EndRun() // nothing pending: a no-op
	if got := unit.Count(); got != 3 {
		t.Fatalf("empty span observed: count %d, want 3", got)
	}

	// A record with a new stamp closes the span before it; its own span
	// stays open.
	for _, ago := range []time.Duration{2 * time.Millisecond, time.Millisecond} {
		r := record.NewData(record.SubtypeAudio)
		r.IngressNanos = time.Now().Add(-ago).UnixNano()
		tr.Observe(r)
	}
	if got := unit.Count(); got != 4 {
		t.Fatalf("stamp change left count %d, want 4", got)
	}
	tr.EndRun()
	if got := unit.Count(); got != 5 {
		t.Fatalf("count %d after the last run end, want 5", got)
	}

	// A probe contributes origin-to-now to the e2e series at once.
	probe := record.NewTraceProbe(time.Now().Add(-20 * time.Millisecond).UnixNano())
	tr.Observe(probe)
	if tr.E2ECount() != 1 {
		t.Fatalf("e2e count = %d, want 1", tr.E2ECount())
	}
	if got := tr.E2EQuantile(0.99); got < 0.01 || got > 0.3 {
		t.Errorf("e2e p99 = %gs, want ~20ms", got)
	}

	// NewLatencyTracer on a nil registry disables tracing.
	if NewLatencyTracer(nil, "u2") != nil {
		t.Fatal("nil registry must yield a nil tracer")
	}
}

// TestTraceProbeRoundTrip locks the probe encoding: origin survives the
// wire codec, and non-probes are rejected.
func TestTraceProbeRoundTrip(t *testing.T) {
	origin := time.Now().UnixNano()
	p := record.NewTraceProbe(origin)
	if !record.IsTraceProbe(p) {
		t.Fatal("probe not recognized")
	}
	// The in-memory ingress stamp must not survive the wire.
	p.IngressNanos = 42
	dec, err := record.NewReader(bytes.NewReader(record.AppendBatchWire(nil, p))).Read()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, err := record.TraceOrigin(dec)
	if err != nil || got != origin {
		t.Fatalf("origin round trip: %d, %v (want %d)", got, err, origin)
	}
	if dec.IngressNanos != 0 {
		t.Fatalf("IngressNanos leaked onto the wire: %d", dec.IngressNanos)
	}
	if _, err := record.TraceOrigin(record.NewData(0)); err == nil {
		t.Fatal("TraceOrigin accepted a data record")
	}
}

// TestProbeSourceInjectsProbes runs a wrapped source and asserts probes
// appear between data records, with origins that measure as small e2e
// latencies at the sink.
func TestProbeSourceInjectsProbes(t *testing.T) {
	src := SourceFunc{SourceName: "gen", Fn: func(out Emitter) error {
		for i := 0; i < 50; i++ {
			r := record.NewData(record.SubtypeAudio)
			r.SetFloat64s([]float64{float64(i)})
			if err := out.Emit(r); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}}
	reg := obs.NewRegistry()
	tr := NewLatencyTracer(reg, "probe-test")
	var data, probes int
	sink := SinkFunc{SinkName: "count", Fn: func(r *record.Record) error {
		if record.IsTraceProbe(r) {
			probes++
		} else if r.Kind == record.KindData {
			data++
		}
		return nil
	}}
	p := New().SetSource(&ProbeSource{Source: src, Interval: 10 * time.Millisecond}).SetSink(sink)
	p.Tracer = tr
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if data != 50 {
		t.Errorf("data records = %d, want 50", data)
	}
	if probes < 2 {
		t.Errorf("probes = %d, want >= 2 over ~50ms at 10ms interval", probes)
	}
	if got := tr.E2ECount(); got != uint64(probes) {
		t.Errorf("tracer saw %d probes, sink saw %d", got, probes)
	}
	if e2e := tr.E2EQuantile(0.99); e2e <= 0 || e2e > 1 {
		t.Errorf("e2e p99 = %gs, want small positive", e2e)
	}
}

// TestLatencyTracerZeroAlloc pins the tracing cost on the pooled
// steady-state path: observing a stamped data record (the per-record
// case; probes are rare) must allocate nothing.
func TestLatencyTracerZeroAlloc(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewLatencyTracer(reg, "pin")
	r := record.NewData(record.SubtypeAudio)
	r.SetFloat64s([]float64{1, 2, 3})
	r.IngressNanos = time.Now().UnixNano()
	// Warm any lazy paths.
	for i := 0; i < 256; i++ {
		tr.Observe(r)
	}
	avg := testing.AllocsPerRun(200, func() {
		r.IngressNanos = time.Now().UnixNano()
		tr.Observe(r)
	})
	if avg != 0 {
		t.Fatalf("LatencyTracer.Observe allocates %.2f allocs/record; want 0", avg)
	}
}

// hostTracedRelay hosts a relay unit named "relay" on a node with an obs
// registry, fed by a streamin with the given queue size, toward a
// collector; it returns the unit's streamin address, the collector and
// the unit's latency histogram.
func hostTracedRelay(t *testing.T, queue int) (string, *seqCollector, *obs.Histogram) {
	t.Helper()
	dst, col, stop := startCollector(t)
	t.Cleanup(stop)
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.QueueSize = queue
	in.Pooled = true
	node := NewNode("host-a", NewRegistry())
	node.Obs = obs.NewRegistry()
	t.Cleanup(func() { node.StopAll() })
	if err := node.HostUnit("relay", "", in, NewSegment("relay", Relay{}), NewStreamOutBatched(dst.Addr(), hourPolicy())); err != nil {
		t.Fatal(err)
	}
	return in.Addr(), col, node.Obs.Histogram("dynriver_unit_latency_seconds", obs.LatencyBuckets, "unit", "relay")
}

// TestHostedUnitLatencyPerRun: a traced hosted relay folds exactly one
// unit-latency observation per record it relays, run by run, and the
// idle gap after a run is not charged to it — with and without a run
// queue.
func TestHostedUnitLatencyPerRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		queue int
	}{{"direct", 0}, {"queued", DefaultQueueSize}} {
		t.Run(tc.name, func(t *testing.T) {
			addr, col, unit := hostTracedRelay(t, tc.queue)
			up := NewStreamOutBatched(addr, hourPolicy())
			defer up.Close()
			// Runs of 10, 40 and 100 records (the last is cut in two).
			var sent uint64
			for _, n := range []uint64{10, 40, 100} {
				sendBatch(t, up, sent, n)
				sent += n
			}
			waitFor(t, 5*time.Second, "150 records past the relay", func() bool { return col.count() == int(sent) })
			waitFor(t, 5*time.Second, "150 latency observations", func() bool { return unit.Count() == sent })

			// Each run's span closes at its end, not when the next run's
			// stamp arrives, so an idle gap never shows in the series.
			const gap = 400 * time.Millisecond
			time.Sleep(gap)
			sendBatch(t, up, sent, 20)
			sent += 20
			waitFor(t, 5*time.Second, "the run after the gap", func() bool { return unit.Count() == sent })
			if p99 := unit.Quantile(0.99); p99 >= gap.Seconds()/4 {
				t.Errorf("unit p99 = %gs after a %v idle gap, want well under it", p99, gap)
			}
		})
	}
}

// TestNonRunEnderSourceObservesPerRecord: a source that does not report
// run ends still has each record timed as it reaches the sink, even when
// every record carries the same ingress stamp.
func TestNonRunEnderSourceObservesPerRecord(t *testing.T) {
	const n = 20
	stamp := time.Now().UnixNano()
	src := SourceFunc{SourceName: "stamped", Fn: func(out Emitter) error {
		for i := 0; i < n; i++ {
			r := record.NewData(record.SubtypeAudio)
			r.IngressNanos = stamp
			if err := out.Emit(r); err != nil {
				return err
			}
		}
		return nil
	}}
	reg := obs.NewRegistry()
	unit := reg.Histogram("dynriver_unit_latency_seconds", obs.LatencyBuckets, "unit", "plain")
	var consumed uint64
	sink := SinkFunc{SinkName: "check", Fn: func(*record.Record) error {
		consumed++
		if got := unit.Count(); got != consumed {
			t.Errorf("record %d reached the sink with %d observations", consumed, got)
		}
		return nil
	}}
	p := New().SetSource(src).SetSink(sink)
	p.Tracer = NewLatencyTracer(reg, "plain")
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if consumed != n || unit.Count() != n {
		t.Fatalf("consumed %d, observed %d, want %d", consumed, unit.Count(), n)
	}
}
