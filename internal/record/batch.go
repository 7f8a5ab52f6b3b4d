package record

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// BatchConfig parameterizes a BatchWriter's flush policy. A batch is
// flushed — written to the output in one Write call — when any trigger
// fires: the record count reaches the current adaptive trigger (MaxRecords
// when AdaptMax is unset), the encoded bytes reach MaxBytes, a boundary
// record is added (a top-level CloseScope/BadCloseScope, which ends a
// clip or session downstream consumers wait on; a Control record, which
// must not sit behind data; a payload of DefaultNoCopyMin bytes or more,
// which rides by reference), or Flush is called explicitly. MaxDelay is
// enforced by the owner's timer, not by the writer (see StreamOut).
type BatchConfig struct {
	// MaxRecords flushes after this many buffered records. Values <= 1
	// select per-record writes (every Add is immediately flushable). When
	// AdaptMax is set, MaxRecords is
	// the floor the adaptive trigger shrinks back to when the stream
	// goes idle.
	MaxRecords int
	// AdaptMax, when > MaxRecords, lets the record-count trigger adapt to
	// backlog: each flush that fills the batch to the current trigger
	// (records are arriving faster than flushes retire them) doubles the
	// trigger toward AdaptMax, and each mostly-empty flush (a run-end,
	// delay-timer or boundary flush on an idle stream) halves it back
	// toward MaxRecords. Backlogged streams coalesce more records per
	// syscall; idle streams keep the small batches that protect delivery
	// latency.
	AdaptMax int
	// MaxBytes flushes once the encoded batch reaches this size, so a few
	// large payloads do not pin an unbounded buffer (default 256 KiB).
	MaxBytes int
	// MaxDelay bounds how long a record may sit in a StreamOut's batch:
	// its timer delivers a batch this old when no flush came sooner. It
	// is the fallback for producers that only Consume and never signal
	// that their input ran dry. <= 0 disables the timer.
	MaxDelay time.Duration
}

// DefaultMaxBatchBytes is the default byte bound of a batch.
const DefaultMaxBatchBytes = 256 << 10

// DefaultReadBufferSize is the reader buffer size for the receiving side
// of a batched stream (streamin, fan-in legs): a whole batch is ingested
// per syscall and decoded on the Peek fast path. A byte-bound batch can
// exceed MaxBytes by the record that crossed the threshold, so the buffer
// leaves 64 KiB of slack beyond the default bound — a batch that fits is
// verified and decoded in one pass with no extra copy.
const DefaultReadBufferSize = DefaultMaxBatchBytes + 64<<10

// DefaultAdaptMax is the default ceiling of the adaptive record-count
// trigger used by hosted segments: under sustained backlog a batch grows
// to 8x the base 64 records before the byte bound takes over.
const DefaultAdaptMax = 512

// DefaultNoCopyMin is the payload size at or above which a flush hands
// the payload to writev (net.Buffers) by reference rather than memcpy it
// into the batch buffer. Below ~4 KiB the copy is cheaper than growing the
// iovec list; above it the copy dominates. Such a record forces the batch
// to flush within the same Add/Write call, while the caller still owns
// the payload, preserving the pool ownership contract.
const DefaultNoCopyMin = 4 << 10

// DefaultBatchConfig returns the batching policy used by hosted segments:
// batch frames of up to 64 records (adapting up to DefaultAdaptMax
// under backlog) or DefaultMaxBatchBytes. A hosted hop or fan-out leg
// flushes as soon as its input runs dry; the 2ms MaxDelay is the
// fallback for producers that only Consume (a station, a load generator).
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{
		MaxRecords: 64,
		AdaptMax:   DefaultAdaptMax,
		MaxBytes:   DefaultMaxBatchBytes,
		MaxDelay:   2 * time.Millisecond,
	}
}

// PerRecordConfig returns a policy that flushes every record immediately:
// each record travels as a single-record batch frame.
func PerRecordConfig() BatchConfig { return BatchConfig{MaxRecords: 1} }

// withDefaults normalizes a config so the zero value batches sensibly.
func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxRecords < 1 {
		c.MaxRecords = 1
	}
	if c.MaxRecords > MaxBatchRecords {
		c.MaxRecords = MaxBatchRecords
	}
	if c.AdaptMax < c.MaxRecords {
		c.AdaptMax = c.MaxRecords
	}
	if c.AdaptMax > MaxBatchRecords {
		c.AdaptMax = MaxBatchRecords
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultMaxBatchBytes
	}
	return c
}

// ErrNoOutput is returned by Flush when records are pending but no output
// writer is attached.
var ErrNoOutput = errors.New("record: batch writer has no output")

// extSeg is a large payload carried by reference: at offset off of the
// writer's batch buffer, p's bytes belong in the encoded stream. The
// referenced payload is still owned by the caller of Add, which is only
// legal because an ext-bearing batch is forced to flush within that same
// public call (see DefaultNoCopyMin); any flush failure materializes
// the segments into the buffer before returning, so no caller memory is
// ever retained across a public-call boundary.
type extSeg struct {
	off int
	p   []byte
}

// BatchWriter encodes records into an in-memory batch and writes the whole
// batch to its output in a single Write call (a single writev when large
// payloads ride by reference), cutting the per-record syscall overhead on
// the streamout hot path. The batch travels as one frame — one header, one
// hardware CRC-32C.
//
// BatchWriter separates buffering from I/O so callers that manage flaky
// outputs (a streamout redialling a moved downstream) can retarget the
// output with SetOutput and retry Flush without losing the pending batch:
// Flush keeps the buffer intact on error.
//
// BatchWriter is not safe for concurrent use; the stats accessors (Count,
// Batches, BytesWritten) are safe to call from other goroutines.
type BatchWriter struct {
	cfg    BatchConfig
	out    io.Writer
	buf    []byte
	recs   int
	curMax int       // adaptive record-count trigger, MaxRecords..AdaptMax
	first  time.Time // when the oldest pending record was added
	force  bool      // a boundary record (close/control) is pending

	ext     []extSeg    // by-reference payloads of the pending batch
	extLen  int         // total bytes across ext
	vecs    net.Buffers // reused iovec list for vectored flushes
	scratch []byte      // spare buffer swapped with buf by materializeExt
	trailer [batchTrailerSize]byte

	nRecs    atomic.Uint64
	nBatches atomic.Uint64
	nBytes   atomic.Uint64
}

// NewBatchWriter returns a BatchWriter flushing to w under cfg. w may be
// nil if the caller attaches an output with SetOutput before flushing.
func NewBatchWriter(w io.Writer, cfg BatchConfig) *BatchWriter {
	cfg = cfg.withDefaults()
	return &BatchWriter{cfg: cfg, out: w, curMax: cfg.MaxRecords}
}

// Config returns the writer's normalized flush policy.
func (b *BatchWriter) Config() BatchConfig { return b.cfg }

// SetOutput retargets the underlying writer, keeping any pending batch so
// it can be flushed to the new output.
func (b *BatchWriter) SetOutput(w io.Writer) { b.out = w }

// Add encodes r into the pending batch without any I/O. Callers combine it
// with ShouldFlush and Flush; Write does all three. A payload at or above
// DefaultNoCopyMin is carried by reference and sets the force trigger — callers
// following the Add/ShouldFlush/Flush contract (Write, StreamOut.Consume)
// therefore flush it before returning, while the payload is still owned by
// their caller.
func (b *BatchWriter) Add(r *Record) error {
	if !r.Kind.Valid() {
		return fmt.Errorf("record: batch add: invalid kind %d", r.Kind)
	}
	if len(r.Payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(r.Payload))
	}
	if b.recs == 0 {
		b.first = time.Now()
		// Reserve the batch header — magic now, count/bodyLen/CRC
		// patched by Flush.
		b.buf = append(b.buf[:0], wireMagic...)
		b.buf = append(b.buf, zeroBatchHdr[4:]...)
	}
	b.buf = appendEntryHeader(b.buf, r)
	if len(r.Payload) >= DefaultNoCopyMin {
		b.ext = append(b.ext, extSeg{off: len(b.buf), p: r.Payload})
		b.extLen += len(r.Payload)
		b.force = true
	} else {
		b.buf = append(b.buf, r.Payload...)
	}
	b.recs++
	if r.Kind == KindControl || (r.Kind.IsClose() && r.Scope == 0) || b.recs >= MaxBatchRecords {
		b.force = true
	}
	return nil
}

// ShouldFlush reports whether the pending batch has hit a count, size or
// boundary trigger.
func (b *BatchWriter) ShouldFlush() bool {
	return b.recs > 0 && (b.force || b.recs >= b.curMax || len(b.buf)+b.extLen >= b.cfg.MaxBytes)
}

// Pending returns the number of records buffered but not yet flushed.
func (b *BatchWriter) Pending() int { return b.recs }

// Age returns how long the oldest pending record has been buffered, or 0
// when the batch is empty.
func (b *BatchWriter) Age() time.Duration {
	if b.recs == 0 {
		return 0
	}
	return time.Since(b.first)
}

// zeroBatchHdr is the placeholder batch header reserved on the first
// Add of a batch and patched by Flush.
var zeroBatchHdr [batchHdrSize]byte

// Flush writes the whole pending batch to the output in one Write — one
// vectored write (writev on a TCP conn) when large payloads ride by
// reference. On success the batch is cleared; on error it is kept so the
// caller can retarget the output and retry, with any by-reference payloads
// materialized into the buffer first so no caller memory is retained. An
// empty batch flushes to a no-op.
func (b *BatchWriter) Flush() error {
	if b.recs == 0 {
		return nil
	}
	if b.out == nil {
		b.materializeExt()
		return ErrNoOutput
	}
	// Patch the batch header and compute the whole-batch CRC-32C in one
	// pass over the buffer and any by-reference payload segments.
	bodyLen := len(b.buf) - batchHdrSize + b.extLen
	putU16(b.buf[4:], uint16(b.recs))
	putU32(b.buf[6:], uint32(bodyLen))
	putU16(b.buf[10:], uint16(crc32.Checksum(b.buf[4:10], castagnoli)))
	var crc uint32
	prev := 4
	for _, e := range b.ext {
		crc = crc32.Update(crc, castagnoli, b.buf[prev:e.off])
		crc = crc32.Update(crc, castagnoli, e.p)
		prev = e.off
	}
	crc = crc32.Update(crc, castagnoli, b.buf[prev:])
	putU32(b.trailer[:], crc)

	if len(b.ext) == 0 {
		b.buf = append(b.buf, b.trailer[:]...)
		if _, err := b.out.Write(b.buf); err != nil {
			b.buf = b.buf[:len(b.buf)-batchTrailerSize]
			return fmt.Errorf("record: batch flush: %w", err)
		}
		b.finishFlush(len(b.buf))
		return nil
	}
	// Vectored flush: buffer slices interleaved with the by-reference
	// payloads, trailer last. net.Buffers.WriteTo is writev on a TCP conn
	// — one syscall, zero payload copies.
	vecs := b.vecs[:0]
	prev = 0
	for _, e := range b.ext {
		if e.off > prev {
			vecs = append(vecs, b.buf[prev:e.off])
		}
		vecs = append(vecs, e.p)
		prev = e.off
	}
	if len(b.buf) > prev {
		vecs = append(vecs, b.buf[prev:])
	}
	vecs = append(vecs, b.trailer[:])
	total := len(b.buf) + b.extLen + batchTrailerSize
	wv := vecs
	_, err := wv.WriteTo(b.out)
	b.vecs = vecs[:0]
	if err != nil {
		b.materializeExt()
		return fmt.Errorf("record: batch flush: %w", err)
	}
	b.finishFlush(total)
	return nil
}

// finishFlush records stats for a flushed batch, adapts the record-count
// trigger, and resets the pending state.
func (b *BatchWriter) finishFlush(wire int) {
	b.nRecs.Add(uint64(b.recs))
	b.nBatches.Add(1)
	b.nBytes.Add(uint64(wire))
	if b.cfg.AdaptMax > b.cfg.MaxRecords {
		switch {
		case b.recs >= b.curMax:
			// Count-triggered flush: records are outpacing flushes — grow.
			if b.curMax *= 2; b.curMax > b.cfg.AdaptMax {
				b.curMax = b.cfg.AdaptMax
			}
		case b.recs <= b.curMax/4:
			// Mostly-empty flush (delay timer, boundary): idle — shrink.
			if b.curMax /= 2; b.curMax < b.cfg.MaxRecords {
				b.curMax = b.cfg.MaxRecords
			}
		}
	}
	b.buf = b.buf[:0]
	b.recs = 0
	b.force = false
	b.ext = b.ext[:0]
	b.extLen = 0
}

// materializeExt splices any by-reference payloads into the batch buffer,
// after which the pending batch aliases no caller memory. Called on every
// flush-failure path so a kept-for-retry batch is always self-contained.
func (b *BatchWriter) materializeExt() {
	if len(b.ext) == 0 {
		return
	}
	need := len(b.buf) + b.extLen
	dst := b.scratch[:0]
	if cap(dst) < need {
		dst = make([]byte, 0, need)
	}
	prev := 0
	for _, e := range b.ext {
		dst = append(dst, b.buf[prev:e.off]...)
		dst = append(dst, e.p...)
		prev = e.off
	}
	dst = append(dst, b.buf[prev:]...)
	b.scratch = b.buf[:0]
	b.buf = dst
	b.ext = b.ext[:0]
	b.extLen = 0
}

// MaterializePending makes the pending batch self-contained (no
// by-reference payload segments). Callers that break out of the
// Add/ShouldFlush/Flush sequence without flushing — a streamout shutting
// down mid-Consume — use it before returning to their caller.
func (b *BatchWriter) MaterializePending() { b.materializeExt() }

// Write encodes r and flushes if a policy trigger fires.
func (b *BatchWriter) Write(r *Record) error {
	if err := b.Add(r); err != nil {
		return err
	}
	if b.ShouldFlush() {
		return b.Flush()
	}
	return nil
}

// Count returns the number of records flushed to the output.
func (b *BatchWriter) Count() uint64 { return b.nRecs.Load() }

// Batches returns the number of batch writes issued.
func (b *BatchWriter) Batches() uint64 { return b.nBatches.Load() }

// BytesWritten returns the total encoded bytes flushed.
func (b *BatchWriter) BytesWritten() uint64 { return b.nBytes.Load() }
