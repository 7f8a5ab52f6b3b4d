// Package pipeline implements Dynamic River, the distributed
// stream-processing substrate from the paper: pipelines are sequential
// compositions of operators between a data source and a final sink,
// partitioned into segments that can run on different hosts connected by
// streamin/streamout network links. Scoped records (see internal/record)
// give the stream enough structure that segments can resynchronize after
// upstream failure or dynamic recomposition.
package pipeline

import (
	"errors"
	"fmt"

	"repro/internal/record"
)

// Emitter receives records produced by an operator. Emit may block for
// backpressure; it returns an error when the downstream has failed or the
// pipeline is shutting down, in which case the operator should return the
// error unchanged.
//
// Emit transfers ownership of the record to the downstream (see the
// ownership contract in record/pool.go): after a successful Emit the
// caller must not touch the record or any slice aliasing its payload.
// A caller that needs the data afterwards emits a Clone.
type Emitter interface {
	Emit(*record.Record) error
}

// EmitterFunc adapts a function to the Emitter interface.
type EmitterFunc func(*record.Record) error

// Emit calls f.
func (f EmitterFunc) Emit(r *record.Record) error { return f(r) }

// Operator transforms a record stream. Process is called once per input
// record; an operator may emit zero, one or many records per input.
// A segment never calls Process concurrently, so implementations do not
// need internal locking, but an operator instance must not be shared
// between segments.
type Operator interface {
	// Name identifies the operator in topology listings and errors.
	Name() string
	// Process consumes one record and emits results downstream.
	Process(r *record.Record, out Emitter) error
}

// Flusher is implemented by operators that buffer records; Flush is called
// once when the input stream ends cleanly so buffered state can be
// emitted. Flush is not called after an error abort.
type Flusher interface {
	Flush(out Emitter) error
}

// Relay is the identity operator: every record passes through unchanged.
// It is the segment body used when a hop exists for placement or
// replication reasons rather than processing — a replicated transport
// leg, a control-plane test chain.
type Relay struct{}

// Name implements Operator.
func (Relay) Name() string { return "relay" }

// Process implements Operator by forwarding the record untouched.
func (Relay) Process(r *record.Record, out Emitter) error { return out.Emit(r) }

// Source produces the records that feed a pipeline. Run must emit records
// until the stream is exhausted or emission fails, then return. A Source
// should return promptly with the emission error when Emit fails (the
// pipeline is shutting down).
type Source interface {
	Name() string
	Run(out Emitter) error
}

// RecycledSource marks a Source that produces pool-backed records (see
// record.GetRecord). When a pipeline's source recycles, Pipeline.Run
// releases each record back to the pool after the sink consumes it, so
// the steady-state path allocates nothing per record. Sinks downstream of
// a recycling source must therefore not retain records past Consume —
// both hosted sinks (StreamOut copies bytes into its batch buffer, the
// replica Splitter fans out pooled clones) already comply.
type RecycledSource interface {
	RecyclesRecords() bool
}

// SeqPreserver marks a Source whose records arrive already sequenced by an
// upstream pipeline. Pipeline.Run stamps fresh Seq numbers onto records
// from ordinary sources; a preserving source's records keep their Seq and
// SourceID intact, which is what lets a replication splitter's tags
// survive the hop through a relay host (streamin, the replica merger).
type SeqPreserver interface {
	PreservesSeq() bool
}

// RunEnder marks a Source that hands records downstream in runs — the
// records of one decoded upstream batch, sharing one ingress stamp — and
// so knows where each run ends and when its input has run dry.
// Pipeline.Run passes it a run-end callback before Run, or nil when
// there is nothing to do at run ends. The source calls end, serialized
// with its Emits, after the last record of every run; dry reports that
// nothing more is immediately available. The callback closes the
// tracer's pending latency span (LatencyTracer.EndRun) at every run end,
// and when dry and the sink can flush (StreamOut.Flush) it delivers the
// sink's pending batch at once instead of leaving it for the MaxDelay
// timer; under backlog dry is false, so batches still grow. An error
// from end fails the pipeline as a failed Emit does, and the source
// stops.
type RunEnder interface {
	SetRunEnd(end func(dry bool) error)
}

// Sink consumes the records leaving a pipeline.
type Sink interface {
	Name() string
	Consume(r *record.Record) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc struct {
	SinkName string
	Fn       func(r *record.Record) error
}

// Name returns the sink name.
func (s SinkFunc) Name() string { return s.SinkName }

// Consume invokes the wrapped function.
func (s SinkFunc) Consume(r *record.Record) error { return s.Fn(r) }

// ErrStopped is returned by Emit when the pipeline has been cancelled;
// sources and operators should treat it as a signal to stop, not a fault.
var ErrStopped = errors.New("pipeline: stopped")

// OperatorError wraps an error with the operator that raised it.
type OperatorError struct {
	Op  string
	Err error
}

// Error formats the operator error.
func (e *OperatorError) Error() string { return fmt.Sprintf("operator %s: %v", e.Op, e.Err) }

// Unwrap returns the underlying error.
func (e *OperatorError) Unwrap() error { return e.Err }
