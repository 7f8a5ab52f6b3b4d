package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
)

// doubler multiplies float payload values by two.
type doubler struct{}

func (doubler) Name() string { return "doubler" }

func (doubler) Process(r *record.Record, out Emitter) error {
	if r.Kind != record.KindData {
		return out.Emit(r)
	}
	v, err := r.Float64s()
	if err != nil {
		return err
	}
	for i := range v {
		v[i] *= 2
	}
	r.SetFloat64s(v)
	return out.Emit(r)
}

// adder adds a constant to float payloads.
type adder struct{ c float64 }

func (adder) Name() string { return "adder" }

func (a adder) Process(r *record.Record, out Emitter) error {
	if r.Kind != record.KindData {
		return out.Emit(r)
	}
	v, err := r.Float64s()
	if err != nil {
		return err
	}
	for i := range v {
		v[i] += a.c
	}
	r.SetFloat64s(v)
	return out.Emit(r)
}

// batcher buffers records and flushes them at end of stream, exercising
// the Flusher path.
type batcher struct{ buf []*record.Record }

func (*batcher) Name() string { return "batcher" }

func (b *batcher) Process(r *record.Record, out Emitter) error {
	b.buf = append(b.buf, r)
	return nil
}

func (b *batcher) Flush(out Emitter) error {
	for _, r := range b.buf {
		if err := out.Emit(r); err != nil {
			return err
		}
	}
	b.buf = nil
	return nil
}

// failer errors on the nth record.
type failer struct {
	n    int
	seen int
}

func (*failer) Name() string { return "failer" }

func (f *failer) Process(r *record.Record, out Emitter) error {
	f.seen++
	if f.seen >= f.n {
		return errors.New("injected failure")
	}
	return out.Emit(r)
}

func floatSource(name string, vals ...float64) Source {
	return SourceFunc{SourceName: name, Fn: func(out Emitter) error {
		for _, v := range vals {
			r := record.NewData(record.SubtypeRaw)
			r.SetFloat64s([]float64{v})
			if err := out.Emit(r); err != nil {
				return err
			}
		}
		return nil
	}}
}

// collectSink gathers consumed records.
type collectSink struct {
	mu   sync.Mutex
	recs []*record.Record
}

func (*collectSink) Name() string { return "collect" }

func (c *collectSink) Consume(r *record.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r)
	return nil
}

func (c *collectSink) values(t *testing.T) []float64 {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []float64
	for _, r := range c.recs {
		if r.Kind != record.KindData {
			continue
		}
		v, err := r.Float64s()
		if err != nil {
			t.Fatalf("payload: %v", err)
		}
		out = append(out, v...)
	}
	return out
}

func TestPipelineLinearFlow(t *testing.T) {
	sink := &collectSink{}
	p := New().
		SetSource(floatSource("src", 1, 2, 3)).
		AppendOps("math", doubler{}, adder{c: 1}).
		SetSink(sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := sink.values(t)
	want := []float64{3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPipelineMultiSegment(t *testing.T) {
	sink := &collectSink{}
	p := New().
		SetSource(floatSource("src", 1, 10)).
		AppendOps("s1", doubler{}).
		AppendOps("s2", adder{c: 5}).
		AppendOps("s3", doubler{}).
		SetSink(sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []float64{14, 50}
	got := sink.values(t)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPipelineSeqStamping(t *testing.T) {
	sink := &collectSink{}
	p := New().
		SetSource(floatSource("src", 5, 6, 7)).
		SetSink(sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, r := range sink.recs {
		if r.Seq != uint64(i) {
			t.Errorf("record %d Seq = %d", i, r.Seq)
		}
	}
}

func TestPipelineFlusher(t *testing.T) {
	sink := &collectSink{}
	p := New().
		SetSource(floatSource("src", 1, 2, 3)).
		AppendOps("buffering", &batcher{}, doubler{}).
		SetSink(sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Flush path must still route through downstream operators (doubler).
	want := []float64{2, 4, 6}
	got := sink.values(t)
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestPipelineMultiSegmentFlushOrder: at end of stream segments flush front
// to back, so what one segment flushes still reaches a later segment's
// buffer before that one flushes.
func TestPipelineMultiSegmentFlushOrder(t *testing.T) {
	sink := &collectSink{}
	p := New().
		SetSource(floatSource("src", 1, 2, 3)).
		AppendOps("s1", &batcher{}, doubler{}).
		AppendOps("s2", adder{c: 1}, &batcher{}).
		AppendOps("s3", doubler{}).
		SetSink(sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 10, 14}
	if got := sink.values(t); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for _, seg := range p.segments {
		if seg.Processed() != 3 || seg.Emitted() != 3 {
			t.Errorf("segment %s processed %d emitted %d, want 3 and 3", seg.Name(), seg.Processed(), seg.Emitted())
		}
	}
}

func TestPipelineOperatorError(t *testing.T) {
	sink := &collectSink{}
	p := New().
		SetSource(floatSource("src", 1, 2, 3, 4, 5)).
		AppendOps("failing", &failer{n: 3}).
		SetSink(sink)
	err := p.Run(context.Background())
	if err == nil {
		t.Fatal("expected error")
	}
	var oe *OperatorError
	if !errors.As(err, &oe) || oe.Op != "failer" {
		t.Errorf("error not attributed to failing operator: %v", err)
	}
}

func TestPipelineSinkError(t *testing.T) {
	bad := SinkFunc{SinkName: "bad", Fn: func(*record.Record) error {
		return errors.New("sink exploded")
	}}
	p := New().SetSource(floatSource("src", 1)).SetSink(bad)
	err := p.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "sink exploded") {
		t.Errorf("err = %v", err)
	}
}

func TestPipelineSourceError(t *testing.T) {
	src := SourceFunc{SourceName: "src", Fn: func(out Emitter) error {
		return errors.New("sensor offline")
	}}
	p := New().SetSource(src).SetSink(&collectSink{})
	err := p.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "sensor offline") {
		t.Errorf("err = %v", err)
	}
}

func TestPipelineMissingStages(t *testing.T) {
	if err := New().SetSink(&collectSink{}).Run(context.Background()); err == nil {
		t.Error("missing source should error")
	}
	if err := New().SetSource(floatSource("s")).Run(context.Background()); err == nil {
		t.Error("missing sink should error")
	}
}

func TestPipelineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	src := SourceFunc{SourceName: "infinite", Fn: func(out Emitter) error {
		for {
			r := record.NewData(0)
			r.SetFloat64s([]float64{1})
			once.Do(func() { close(started) })
			if err := out.Emit(r); err != nil {
				return err
			}
		}
	}}
	p := New().SetSource(src).AppendOps("noop", doubler{}).SetSink(&collectSink{})
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline did not stop after cancellation")
	}
}

func TestSegmentStats(t *testing.T) {
	seg := NewSegment("s", doubler{})
	sink := &collectSink{}
	p := New().SetSource(floatSource("src", 1, 2, 3, 4)).Append(seg).SetSink(sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if seg.Processed() != 4 || seg.Emitted() != 4 {
		t.Errorf("Processed=%d Emitted=%d, want 4/4", seg.Processed(), seg.Emitted())
	}
	if seg.Name() != "s" {
		t.Errorf("Name = %q", seg.Name())
	}
	ops := seg.Operators()
	if len(ops) != 1 || ops[0] != "doubler" {
		t.Errorf("Operators = %v", ops)
	}
}

func TestPipelineTopology(t *testing.T) {
	p := New().
		SetSource(floatSource("feed")).
		AppendOps("extract", doubler{}, adder{}).
		SetSink(&collectSink{})
	topo := p.Topology()
	for _, want := range []string{"source[feed]", "segment[extract]", "doubler | adder", "sink[collect]"} {
		if !strings.Contains(topo, want) {
			t.Errorf("topology %q missing %q", topo, want)
		}
	}
	if len(p.segments) != 1 {
		t.Errorf("Segments = %d", len(p.segments))
	}
}

func TestSegmentProcessOne(t *testing.T) {
	seg := NewSegment("s", doubler{}, adder{c: 3})
	var got []float64
	out := EmitterFunc(func(r *record.Record) error {
		v, err := r.Float64s()
		if err != nil {
			return err
		}
		got = append(got, v...)
		return nil
	})
	r := record.NewData(0)
	r.SetFloat64s([]float64{4})
	if err := seg.ProcessOne(r, out); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 11 {
		t.Errorf("got %v, want [11]", got)
	}
}

func TestOperatorErrorUnwrap(t *testing.T) {
	inner := errors.New("boom")
	oe := &OperatorError{Op: "x", Err: inner}
	if !errors.Is(oe, inner) {
		t.Error("Unwrap broken")
	}
	if !strings.Contains(oe.Error(), "x") || !strings.Contains(oe.Error(), "boom") {
		t.Errorf("Error() = %q", oe.Error())
	}
}

func TestScopedRecordsFlowUnmodified(t *testing.T) {
	sink := &collectSink{}
	src := SourceFunc{SourceName: "scoped", Fn: func(out Emitter) error {
		open := record.NewOpenScope(record.ScopeClip, 0)
		open.SetContext(map[string]string{record.CtxSampleRate: "24576"})
		if err := out.Emit(open); err != nil {
			return err
		}
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s([]float64{1})
		if err := out.Emit(r); err != nil {
			return err
		}
		return out.Emit(record.NewCloseScope(record.ScopeClip, 0))
	}}
	p := New().SetSource(src).AppendOps("math", doubler{}).SetSink(sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sink.recs) != 3 {
		t.Fatalf("got %d records", len(sink.recs))
	}
	if sink.recs[0].Kind != record.KindOpenScope || sink.recs[2].Kind != record.KindCloseScope {
		t.Error("scope records damaged in transit")
	}
	if sink.recs[0].ContextValue(record.CtxSampleRate) != "24576" {
		t.Error("scope context lost")
	}
	tr := record.NewTracker()
	for _, r := range sink.recs {
		if err := tr.Observe(r); err != nil {
			t.Fatalf("scope structure broken: %v", err)
		}
	}
}

func TestPipelineThroughputManyRecords(t *testing.T) {
	const n = 10000
	src := SourceFunc{SourceName: "bulk", Fn: func(out Emitter) error {
		for i := 0; i < n; i++ {
			r := record.NewData(0)
			r.SetFloat64s([]float64{float64(i)})
			if err := out.Emit(r); err != nil {
				return err
			}
		}
		return nil
	}}
	var count int
	sink := SinkFunc{SinkName: "count", Fn: func(*record.Record) error {
		count++
		return nil
	}}
	p := New().SetSource(src).AppendOps("s1", doubler{}).AppendOps("s2", adder{c: 1}).SetSink(sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("sink saw %d records, want %d", count, n)
	}
}

func BenchmarkPipelineThroughput(b *testing.B) {
	payload := make([]float64, 1024)
	src := SourceFunc{SourceName: "bulk", Fn: func(out Emitter) error {
		for i := 0; i < b.N; i++ {
			r := record.NewData(0)
			r.SetFloat64s(payload)
			if err := out.Emit(r); err != nil {
				return err
			}
		}
		return nil
	}}
	sink := SinkFunc{SinkName: "null", Fn: func(*record.Record) error { return nil }}
	p := New().SetSource(src).AppendOps("s", doubler{}).SetSink(sink)
	b.ReportAllocs()
	b.SetBytes(1024 * 8)
	b.ResetTimer()
	if err := p.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
}

func ExamplePipeline() {
	sink := SinkFunc{SinkName: "print", Fn: func(r *record.Record) error {
		v, err := r.Float64s()
		if err != nil {
			return err
		}
		fmt.Println(v)
		return nil
	}}
	p := New().
		SetSource(floatSource("src", 1, 2)).
		AppendOps("math", doubler{}).
		SetSink(sink)
	if err := p.Run(context.Background()); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// [2]
	// [4]
}
