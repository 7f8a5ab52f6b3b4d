package record

import "sync"

// Record pooling.
//
// The steady-state transport path (streamout → streamin → merger) turns
// over one *Record per stream record; without reuse every decoded record
// and payload is a fresh heap allocation. Two mechanisms recycle both the
// Record header and its payload buffer. On a hosted hop the records are
// owned by their run: the pipeline hosting a pooled streamin hands each
// record back to that streamin once its sink is done with it, and the
// streamin decodes its next run into the records its last run handed back
// (Reader.ReadInto), with no cross-goroutine pool traffic. GetRecord and
// Release back everything else with a sync.Pool: records an operator
// creates, records held across runs, the merger's reorder ring.
//
// # Ownership contract
//
// A *Record has exactly one owner at a time. Handing a record to
// Emitter.Emit, Sink.Consume, Operator.Process or a source's Recycle
// transfers ownership to the callee; the caller must not touch the record
// (or any slice aliasing its payload) afterwards. The final owner — and
// only the final owner — ends the record's life, as its very last use of
// it: an operator or plain sink by calling Release; the pipeline hosting a
// recycling source by handing the record back to that source (Recycle)
// once its sink has consumed it, so a sink there must not retain a record
// past Consume or ConsumeRun. An operator that consumes a record without
// emitting it (the cutter's audio and trigger inputs, rec2vect's spectra)
// is its final owner and releases it once the values it needs are copied
// out; a record an operator creates comes from GetRecord. Nothing reads a
// record, its header included, after handing it to Emit or Release: take
// what is needed (Scope, ScopeType) first. Components that copy the bytes
// out synchronously (BatchWriter.Add, StreamOut.Consume and ConsumeRun,
// the typed Float64s/PCM16/... decoders) do not retain the record, so
// their caller keeps ownership. Holding a record past a handoff requires
// Clone (or GetCopy).
//
// A recycling source takes back any record, whichever source or operator
// made it: the streamin keeps as many as its current run walked and
// releases the rest to the pool, the merger releases every one. Release
// is always optional: a record that is never released is simply collected
// by the GC, so sources that produce un-pooled records and sinks that
// never release interoperate freely with pooled components.
const (
	// maxPooledPayload bounds the payload capacity a recycled record
	// keeps. Oversized one-off payloads (full clips, large contexts) are
	// dropped so a single huge record cannot pin megabytes inside the pool
	// or a run buffer.
	maxPooledPayload = 1 << 20
)

var recordPool = sync.Pool{
	New: func() any { return new(Record) },
}

// GetRecord returns a cleared record from the pool. The record's payload
// slice has length zero but may retain capacity from a prior use; the
// Set* helpers and the decoder reuse that capacity in place.
func GetRecord() *Record {
	return recordPool.Get().(*Record)
}

// Release returns r to the pool after clearing its header and truncating
// (but keeping) its payload buffer. The caller must not use r, or any
// slice obtained from its payload, after Release. Release(nil) is a no-op.
func Release(r *Record) {
	if r == nil {
		return
	}
	r.reset()
	recordPool.Put(r)
}

// reset clears r's header and truncates its payload, keeping the
// payload's capacity unless it is oversized, so r can take a new record.
func (r *Record) reset() {
	p := r.Payload
	*r = Record{}
	if cap(p) > 0 && cap(p) <= maxPooledPayload {
		r.Payload = p[:0]
	}
}

// GetCopy returns a pooled deep copy of r: a clone whose storage comes
// from (and can be released back to) the record pool. Use it when a
// component must retain a record beyond a handoff boundary, e.g. the
// replica splitter fanning one input record out to several legs.
func GetCopy(r *Record) *Record {
	return r.CloneInto(GetRecord())
}
