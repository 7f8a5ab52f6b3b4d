package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/record"
)

// Segment is a named, ordered chain of operators. Segments are the unit of
// placement: a pipeline is a sequence of segments, each of which may live
// on a different host, linked by direct calls in-process or by
// streamin/streamout over the network.
type Segment struct {
	name string
	ops  []Operator

	processed atomic.Uint64
	emitted   atomic.Uint64
}

// NewSegment returns a segment running the given operators in order.
func NewSegment(name string, ops ...Operator) *Segment {
	return &Segment{name: name, ops: ops}
}

// Name returns the segment name.
func (s *Segment) Name() string { return s.name }

// Operators returns the operator names in order.
func (s *Segment) Operators() []string {
	out := make([]string, len(s.ops))
	for i, op := range s.ops {
		out[i] = op.Name()
	}
	return out
}

// Processed returns the number of records the segment has consumed.
func (s *Segment) Processed() uint64 { return s.processed.Load() }

// Emitted returns the number of records the segment has produced.
func (s *Segment) Emitted() uint64 { return s.emitted.Load() }

// chainEmitter routes a record through ops[i:] and finally to out.
func (s *Segment) chainEmitter(i int, out Emitter) Emitter {
	if i >= len(s.ops) {
		return EmitterFunc(func(r *record.Record) error {
			s.emitted.Add(1)
			return out.Emit(r)
		})
	}
	next := s.chainEmitter(i+1, out)
	op := s.ops[i]
	return EmitterFunc(func(r *record.Record) error {
		if err := op.Process(r, next); err != nil {
			return wrapOpErr(op, err)
		}
		return nil
	})
}

// entry returns an emitter that counts a record into the segment and routes
// it through the operator chain to out.
func (s *Segment) entry(out Emitter) Emitter {
	head := s.chainEmitter(0, out)
	return EmitterFunc(func(r *record.Record) error {
		s.processed.Add(1)
		return head.Emit(r)
	})
}

// ProcessOne pushes a single record through the chain (used by in-process
// drivers and tests).
func (s *Segment) ProcessOne(r *record.Record, out Emitter) error {
	return s.entry(out).Emit(r)
}

// FlushAll flushes each operator in order into out.
func (s *Segment) FlushAll(out Emitter) error { return s.flush(out) }

func (s *Segment) flush(out Emitter) error {
	// Flush ops front to back; operator i's flushed records must traverse
	// operators i+1..n before those are themselves flushed.
	for i, op := range s.ops {
		f, ok := op.(Flusher)
		if !ok {
			continue
		}
		if err := f.Flush(s.chainEmitter(i+1, out)); err != nil {
			return wrapOpErr(op, err)
		}
	}
	return nil
}

func wrapOpErr(op Operator, err error) error {
	if errors.Is(err, ErrStopped) {
		return err
	}
	var oe *OperatorError
	if errors.As(err, &oe) {
		return err // already attributed to the failing operator
	}
	return &OperatorError{Op: op.Name(), Err: err}
}

// Pipeline composes a source, segments and a sink in-process. Every record
// runs to completion inside the source's Emit: through each segment in
// order and straight into the sink, with no stage hand-off. Segments run
// concurrently when they are placed on different hosts (or units), joined
// by streamout/streamin, which is how the paper distributes record
// processing across resources.
type Pipeline struct {
	source   Source
	segments []*Segment
	sink     Sink

	// Tracer, when set, observes every record as it reaches the sink
	// stage, recording unit and end-to-end latency (see LatencyTracer):
	// per run when the source is a RunEnder, per record otherwise. Nil
	// leaves the sink stage untouched.
	Tracer *LatencyTracer
}

// New returns an empty pipeline. Stages are added with SetSource,
// Append and SetSink, then executed with Run.
func New() *Pipeline { return &Pipeline{} }

// SetSource sets the record producer.
func (p *Pipeline) SetSource(src Source) *Pipeline {
	p.source = src
	return p
}

// Append adds a segment to the end of the chain.
func (p *Pipeline) Append(seg *Segment) *Pipeline {
	p.segments = append(p.segments, seg)
	return p
}

// AppendOps is shorthand for Append(NewSegment(name, ops...)).
func (p *Pipeline) AppendOps(name string, ops ...Operator) *Pipeline {
	return p.Append(NewSegment(name, ops...))
}

// SetSink sets the record consumer.
func (p *Pipeline) SetSink(sink Sink) *Pipeline {
	p.sink = sink
	return p
}

// Topology returns a printable description of the composed pipeline, used
// by the Figure 5 reproduction.
func (p *Pipeline) Topology() string {
	out := ""
	if p.source != nil {
		out += fmt.Sprintf("source[%s]", p.source.Name())
	}
	for _, seg := range p.segments {
		out += fmt.Sprintf(" -> segment[%s](", seg.Name())
		for i, op := range seg.Operators() {
			if i > 0 {
				out += " | "
			}
			out += op
		}
		out += ")"
	}
	if p.sink != nil {
		out += fmt.Sprintf(" -> sink[%s]", p.sink.Name())
	}
	return out
}

// Run executes the pipeline until the source is exhausted and all records
// have drained through the sink, or any stage fails, or ctx is cancelled.
// The first non-shutdown error is returned; a clean drain returns nil.
func (p *Pipeline) Run(parent context.Context) error {
	if p.source == nil {
		return errors.New("pipeline: no source")
	}
	if p.sink == nil {
		return errors.New("pipeline: no sink")
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		if err == nil || errors.Is(err, ErrStopped) {
			return
		}
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	// A source that blocks outside Emit (e.g. a streamin waiting in
	// Accept or on its upstream) never observes the shutdown a failed
	// stage triggers via ctx; close it so Run can unwind (the deferred
	// cancel fires this too, when the source is spent anyway).
	if c, ok := p.source.(interface{ Close() error }); ok {
		context.AfterFunc(ctx, func() { _ = c.Close() })
	}

	// The sink ends the ownership chain: a recycling source's records are
	// released once Consume returns (hosted sinks copy what they need
	// synchronously). A sink error fails the pipeline before the
	// operators it unwinds through can claim it.
	recycle := false
	if rs, ok := p.source.(RecycledSource); ok {
		recycle = rs.RecyclesRecords()
	}
	// A source that runs records in batches closes the tracer's span at
	// every run end, and flushes a flushable sink when its input ran dry,
	// so a batched hop delivers without waiting for its timer. Any other
	// source's records are timed one by one.
	re, runs := p.source.(RunEnder)
	var out Emitter = EmitterFunc(func(r *record.Record) error {
		p.Tracer.Observe(r)
		if !runs {
			p.Tracer.EndRun()
		}
		err := p.sink.Consume(r)
		if recycle {
			record.Release(r)
		}
		if err != nil {
			err = fmt.Errorf("sink %s: %w", p.sink.Name(), err)
			fail(err)
		}
		return err
	})
	if runs {
		f, flushable := p.sink.(interface{ Flush() error })
		var end func(dry bool) error
		if flushable || p.Tracer != nil {
			end = func(dry bool) error {
				p.Tracer.EndRun()
				if !dry || !flushable {
					return nil
				}
				select {
				case <-ctx.Done():
					return ErrStopped
				default:
				}
				if err := f.Flush(); err != nil {
					err = fmt.Errorf("sink %s: %w", p.sink.Name(), err)
					fail(err)
					return err
				}
				return nil
			}
		}
		re.SetRunEnd(end)
	}

	// outs[i] feeds segment i; the segments are chained back to front.
	outs := make([]Emitter, len(p.segments)+1)
	outs[len(p.segments)] = out
	for i := len(p.segments) - 1; i >= 0; i-- {
		outs[i] = p.segments[i].entry(outs[i+1])
	}

	// The source stage stamps sequence numbers — unless the source relays
	// records already sequenced upstream (a streamin feeding a replica leg
	// must preserve the splitter's tags) — and runs the chain.
	preserve := false
	if sp, ok := p.source.(SeqPreserver); ok {
		preserve = sp.PreservesSeq()
	}
	head, done := outs[0], ctx.Done()
	var seq uint64
	err := p.source.Run(EmitterFunc(func(r *record.Record) error {
		select {
		case <-done:
			return ErrStopped
		default:
		}
		if !preserve {
			r.Seq = seq
			seq++
		}
		err := head.Emit(r)
		// Fail now, not when Run returns: a queued source holds the error
		// until its reader next enqueues, which may be never.
		fail(err)
		return err
	}))
	// At end of stream flush the segments front to back, so one segment's
	// flushed records traverse the later ones before those flush.
	for i, seg := range p.segments {
		if err != nil || ctx.Err() != nil {
			break
		}
		err = seg.flush(outs[i+1])
	}
	fail(err)
	// The source and the segments are done emitting: time what the last
	// run left counted.
	p.Tracer.EndRun()
	if firstErr != nil {
		return firstErr
	}
	// Distinguish external cancellation from internal completion: the
	// derived ctx is always cancelled by the deferred cancel, but the
	// parent is only done when the caller stopped us.
	if err := parent.Err(); err != nil {
		return err
	}
	return nil
}
