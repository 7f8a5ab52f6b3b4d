package record

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire format — one frame per batch of records (all integers
// little-endian):
//
//	magic    uint32  'D','R','V','2'
//	count    uint16  number of records in the batch (>= 1)
//	bodyLen  uint32  encoded size of all entries, headers + payloads
//	hdrCRC   uint16  (low 16 bits of CRC-32C over count..bodyLen)
//	body     [bodyLen]byte   — count entries, each:
//	    kind       uint8
//	    subtype    uint16
//	    scope      uint16
//	    scopeType  uint16
//	    seq        uint64
//	    sourceID   uint32
//	    payloadTyp uint16
//	    payloadLen uint32
//	    payload    [payloadLen]byte
//	batchCRC uint32  (CRC-32C over everything from count through body)
//
// Framing is amortized over the whole batch and checksummed in a single
// CRC-32C (Castagnoli) pass, which Go accelerates with the SSE4.2 / ARMv8
// CRC instructions. The magic word lets a reader resynchronize on a byte
// stream after a partial write or corruption; the batch header CRC guards
// count/bodyLen before the reader commits to consuming bodyLen bytes; the
// trailing CRC covers the whole batch, so corruption anywhere in the body
// drops exactly that batch (the reader counts it and re-syncs on the next
// magic word — see Read). A record written on its own travels as a
// single-record batch.

const (
	wireMagic = "DRV2"
	// entryHdrSize is the per-record header inside a batch body.
	entryHdrSize = 1 + 2 + 2 + 2 + 8 + 4 + 2 + 4
	// batchHdrSize is the batch header: magic, count, bodyLen, hdrCRC.
	batchHdrSize = 4 + 2 + 4 + 2
	// batchTrailerSize is the whole-batch CRC-32C.
	batchTrailerSize = 4
	// MaxBatchRecords is the largest count a batch frame can carry
	// (the count field is a uint16).
	MaxBatchRecords = 1<<16 - 1
	// MaxPayload bounds the payload size accepted by the decoder. It
	// protects readers from corrupt length fields; 64 MiB is far above any
	// record produced by the acoustic pipeline (a 30 s clip is ~1.5 MiB).
	MaxPayload = 64 << 20
	// MaxBatchBody bounds the batch body accepted by the decoder, for
	// the same reason MaxPayload bounds a record: a corrupt (but
	// header-CRC-valid) length field must not commit the reader to
	// consuming gigabytes. Writers flush on BatchConfig.MaxBytes long
	// before this.
	MaxBatchBody = 256 << 20
)

// castagnoli is the CRC-32C table; crc32.Checksum with it dispatches to
// the hardware CRC32 instruction on amd64 (SSE4.2) and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Codec errors.
var (
	ErrBadMagic    = errors.New("record: bad magic word")
	ErrBadChecksum = errors.New("record: checksum mismatch")
	ErrTooLarge    = errors.New("record: payload exceeds MaxPayload")
	ErrBadBatch    = errors.New("record: malformed batch frame")
)

// errBatchSkipped is an internal sentinel, wrapped around the damage it
// reports: a batch failed its CRC (or was structurally inconsistent) and
// has been consumed in full, so the Read loop should simply try the next
// frame — no byte-wise resync needed, the stream is already positioned at
// the frame boundary.
var errBatchSkipped = errors.New("record: corrupt batch skipped")

// appendEntryHeader appends r's batch entry header and returns the
// extended slice.
func appendEntryHeader(dst []byte, r *Record) []byte {
	dst = append(dst, byte(r.Kind))
	dst = appendU16(dst, r.Subtype)
	dst = appendU16(dst, r.Scope)
	dst = appendU16(dst, uint16(r.ScopeType))
	dst = appendU64(dst, r.Seq)
	dst = appendU32(dst, r.SourceID)
	dst = appendU16(dst, uint16(r.PayloadType))
	return appendU32(dst, uint32(len(r.Payload)))
}

// AppendBatchWire appends one batch frame carrying recs to dst and
// returns the extended slice. It is the one-shot form of BatchWriter's
// framing, used by tests and tools; the hot path assembles the frame
// incrementally. recs must be non-empty and hold at most MaxBatchRecords
// records.
func AppendBatchWire(dst []byte, recs ...*Record) []byte {
	if len(recs) == 0 || len(recs) > MaxBatchRecords {
		panic("record: AppendBatchWire: batch must carry 1..65535 records")
	}
	start := len(dst)
	dst = append(dst, wireMagic...)
	dst = appendU16(dst, uint16(len(recs)))
	dst = appendU32(dst, 0) // bodyLen, patched below
	dst = appendU16(dst, 0) // hdrCRC, patched below
	for _, r := range recs {
		dst = appendEntryHeader(dst, r)
		dst = append(dst, r.Payload...)
	}
	body := len(dst) - start - batchHdrSize
	putU32(dst[start+6:], uint32(body))
	putU16(dst[start+10:], uint16(crc32.Checksum(dst[start+4:start+10], castagnoli)))
	crc := crc32.Checksum(dst[start+4:], castagnoli)
	return appendU32(dst, crc)
}

// Writer is a BatchWriter under PerRecordConfig: every Write puts one
// single-record frame on the output.
type Writer = BatchWriter

// NewWriter returns a Writer encoding onto w, one frame and one flush per
// record so a networked peer observes records promptly.
func NewWriter(w io.Writer) *Writer { return NewBatchWriter(w, PerRecordConfig()) }

// Reader decodes records from an io.Reader. Reader is not safe for
// concurrent use.
type Reader struct {
	r      *bufio.Reader
	pooled bool

	// Cursor over the current CRC-verified batch body: records are
	// materialized lazily, one per Read, so a deep batch never bursts
	// hundreds of pooled records into flight at once. batch aliases
	// either the bufio peek window (kept valid because the reader does no
	// other buffer operation until the cursor drains) or batchBuf.
	batch        []byte
	batchOff     int // offset of the next undecoded entry in batch
	batchLeft    int // entries not yet handed to the caller
	batchConsume int // bytes to Discard when the cursor drains (peek path)
	// batchBuf is the reader-owned spill buffer for batches larger than
	// the bufio window; reused across such batches.
	batchBuf []byte
	// corrupt counts damage episodes; see CorruptBatches.
	corrupt uint64
	// resyncing is set while Read scans for the next magic word, so one
	// stretch of damage counts once however many false starts it holds.
	resyncing bool
}

// NewReader returns a Reader decoding from r. The reader resynchronizes on
// the next magic word after encountering corruption.
func NewReader(r io.Reader) *Reader {
	return NewReaderSize(r, 64<<10)
}

// NewReaderSize returns a Reader with a read buffer of at least size bytes.
// Batched writers deliver whole batches in one network write; a buffer
// sized to the peer's batch limit (see BatchConfig.MaxBytes) lets the
// reader ingest a batch per syscall and decode every record on the
// zero-extra-copy Peek fast path.
func NewReaderSize(r io.Reader, size int) *Reader {
	// Room for the smallest frame, so its header can always be peeked.
	size = max(size, batchHdrSize+entryHdrSize+batchTrailerSize)
	return &Reader{r: bufio.NewReaderSize(r, size)}
}

// SetPooled controls record allocation: when pooled, decoded records come
// from the record pool (GetRecord) and reuse payload capacity in place.
// The consumer of a pooled reader's records takes ownership of each one
// and releases it (Release) when done — see the ownership contract in
// pool.go. Off by default so plain readers can retain records freely.
func (r *Reader) SetPooled(pooled bool) { r.pooled = pooled }

// newRecord returns the destination record for one decode: pooled (with
// reusable payload capacity) or freshly allocated.
func (r *Reader) newRecord() *Record {
	if r.pooled {
		return GetRecord()
	}
	return new(Record)
}

// Reset discards any buffered state and switches the reader to decode
// from src, retaining the underlying buffer and mode flags. It lets one
// reader (and its read buffer) serve a sequence of streams without
// reallocating.
func (r *Reader) Reset(src io.Reader) {
	r.batch = nil
	r.batchOff, r.batchLeft, r.batchConsume = 0, 0, 0
	r.resyncing = false
	r.r.Reset(src)
}

// CorruptBatches returns the number of damage episodes the reader has
// skipped: a batch dropped whole because its CRC (or internal
// structure) failed after a valid batch header — exactly that batch is
// lost — or a byte-wise resync past bytes that are not a frame (a damaged
// batch header, whose length cannot be trusted, or foreign bytes between
// frames), counted once per stretch.
func (r *Reader) CorruptBatches() uint64 { return r.corrupt }

// BatchLeft returns how many records of the open batch Read has yet to
// hand out. While it is positive the next Read decodes from memory and
// cannot block; at 0 the next Read starts a new frame, so a consumer
// grouping records into per-batch runs cuts its run there.
func (r *Reader) BatchLeft() int { return r.batchLeft }

// Buffered returns how many bytes of the input are already read but not
// yet decoded. With BatchLeft at 0 and nothing buffered, nothing more is
// immediately available: the next Read waits on the input.
func (r *Reader) Buffered() int { return r.r.Buffered() }

// Read decodes the next record. It returns io.EOF at a clean end of stream
// and io.ErrUnexpectedEOF if the stream ends mid-record.
func (r *Reader) Read() (*Record, error) { return r.ReadInto(nil) }

// ReadInto is Read decoding into dst, a record the caller owns and no one
// else holds: dst is cleared (its payload capacity kept) and returned
// filled with the next record. A nil dst takes a fresh record as Read
// does. On error dst is untouched and still the caller's. This is how a
// streamin decodes the next run into the records its last run handed
// back.
func (r *Reader) ReadInto(dst *Record) (*Record, error) {
	for {
		if r.batchLeft > 0 {
			return r.nextBatchRecord(dst), nil
		}
		rec, err := r.readOne(dst)
		if err == nil {
			r.resyncing = false
			return rec, nil
		}
		if errors.Is(err, errBatchSkipped) {
			// The corrupt batch was consumed whole; the stream is already
			// positioned at the next frame boundary.
			continue
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, err
		}
		// Resynchronize: drop one byte and scan for the next magic word.
		if !r.resyncing {
			r.resyncing = true
			r.corrupt++
		}
		if _, derr := r.r.Discard(1); derr != nil {
			return nil, io.EOF
		}
		if serr := r.seekMagic(); serr != nil {
			return nil, serr
		}
	}
}

// readOne verifies the batch frame at the current position and opens the
// lazy decode cursor over its body, returning its first record. The batch
// header CRC is verified before count/bodyLen are trusted; the whole-batch
// CRC and entry structure are verified in one pass before any record is
// materialized. A batch that fails after a valid header is consumed whole
// and reported wrapped in errBatchSkipped, so only that batch is
// lost and decoding resumes at the next frame.
func (r *Reader) readOne(dst *Record) (*Record, error) {
	hdr, err := r.r.Peek(batchHdrSize)
	if n := min(len(hdr), len(wireMagic)); string(hdr[:n]) != wireMagic[:n] {
		// Not a frame start (at end of stream: trailing garbage shorter
		// than a magic word).
		return nil, ErrBadMagic
	}
	if err != nil {
		if len(hdr) == 0 {
			return nil, io.EOF
		}
		return nil, unexpectedEOF(err)
	}
	if want := getU16(hdr[10:]); uint16(crc32.Checksum(hdr[4:10], castagnoli)) != want {
		// count/bodyLen cannot be trusted, so the frame length is unknown:
		// fall back to byte-wise resync in Read.
		return nil, fmt.Errorf("%w: batch header CRC", ErrBadChecksum)
	}
	count := int(getU16(hdr[4:]))
	bodyLen := int(getU32(hdr[6:]))
	if count == 0 || bodyLen < count*entryHdrSize || bodyLen > MaxBatchBody {
		return nil, fmt.Errorf("%w: count=%d bodyLen=%d", ErrBadBatch, count, bodyLen)
	}
	total := batchHdrSize + bodyLen + batchTrailerSize
	var frame []byte
	consumed := total
	if total <= r.r.Size() {
		frame, err = r.r.Peek(total)
		if err != nil {
			return nil, unexpectedEOF(err)
		}
	} else {
		// Batch exceeds the peek window: spill into a reader-owned buffer.
		// The bytes are consumed up front, which is fine — a failure below
		// drops exactly this batch either way.
		if cap(r.batchBuf) < total {
			r.batchBuf = make([]byte, total)
		}
		frame = r.batchBuf[:total]
		if _, err := io.ReadFull(r.r, frame); err != nil {
			return nil, unexpectedEOF(err)
		}
		consumed = 0
	}
	if want := getU32(frame[batchHdrSize+bodyLen:]); crc32.Checksum(frame[4:batchHdrSize+bodyLen], castagnoli) != want {
		return nil, r.dropBatch(consumed, fmt.Errorf("%w: batch CRC", ErrBadChecksum))
	}
	body := frame[batchHdrSize : batchHdrSize+bodyLen]
	if err := scanBatchBody(body, count); err != nil {
		return nil, r.dropBatch(consumed, err)
	}
	r.batch = body
	r.batchOff = 0
	r.batchLeft = count
	r.batchConsume = consumed
	return r.nextBatchRecord(dst), nil
}

// nextBatchRecord materializes the next record of the open batch cursor
// into dst (cleared first), or into a new record when dst is nil.
// The body has passed the batch CRC and the structural scan, so the entry
// geometry is trusted here. When the last record is handed out the frame's
// bytes are released back to the buffer (the peek path defers its Discard
// until now, since the cursor aliases the buffered bytes).
func (r *Reader) nextBatchRecord(dst *Record) *Record {
	e := r.batch[r.batchOff:]
	plen := int(getU32(e[21:]))
	rec := dst
	if rec == nil {
		rec = r.newRecord()
	} else {
		rec.reset()
	}
	fillEntryHeader(rec, e)
	if plen > 0 {
		copy(rec.ensurePayload(plen), e[entryHdrSize:entryHdrSize+plen])
	}
	r.batchOff += entryHdrSize + plen
	if r.batchLeft--; r.batchLeft == 0 {
		r.batch = nil
		r.batchOff = 0
		if r.batchConsume > 0 {
			// The whole frame is buffered (it was Peeked), so the Discard
			// cannot fail.
			_, _ = r.r.Discard(r.batchConsume)
			r.batchConsume = 0
		}
	}
	return rec
}

// dropBatch consumes a corrupt batch (when its bytes are still buffered),
// counts it — the stream is back on a frame boundary, so any resync
// stretch that led here is over — and wraps the failure in the skip
// sentinel.
func (r *Reader) dropBatch(consume int, cause error) error {
	r.corrupt++
	r.resyncing = false
	if consume > 0 {
		if _, err := r.r.Discard(consume); err != nil {
			return fmt.Errorf("record: discard corrupt batch: %w", err)
		}
	}
	return fmt.Errorf("%w: %w", errBatchSkipped, cause)
}

// scanBatchBody validates the entry structure of a CRC-verified batch
// body without materializing anything. The CRC has passed, so structural
// inconsistencies (entry overruns, trailing slack, an invalid kind)
// indicate an encoder bug or an astronomically unlucky collision; they
// fail the whole batch before a single record is allocated.
func scanBatchBody(body []byte, count int) error {
	off := 0
	for i := 0; i < count; i++ {
		if len(body)-off < entryHdrSize {
			return fmt.Errorf("%w: entry %d header truncated", ErrBadBatch, i)
		}
		e := body[off : off+entryHdrSize]
		plen := int(getU32(e[21:]))
		if plen > MaxPayload {
			return fmt.Errorf("%w: entry %d: %w", ErrBadBatch, i, ErrTooLarge)
		}
		if !Kind(e[0]).Valid() {
			return fmt.Errorf("%w: entry %d: invalid kind %d", ErrBadBatch, i, e[0])
		}
		if len(body)-off-entryHdrSize < plen {
			return fmt.Errorf("%w: entry %d payload truncated", ErrBadBatch, i)
		}
		off += entryHdrSize + plen
	}
	if off != len(body) {
		return fmt.Errorf("%w: %d slack bytes after last entry", ErrBadBatch, len(body)-off)
	}
	return nil
}

// fillEntryHeader populates rec's header fields from a batch entry header,
// leaving the payload untouched.
func fillEntryHeader(rec *Record, e []byte) {
	rec.Kind = Kind(e[0])
	rec.Subtype = getU16(e[1:])
	rec.Scope = getU16(e[3:])
	rec.ScopeType = ScopeType(getU16(e[5:]))
	rec.Seq = getU64(e[7:])
	rec.SourceID = getU32(e[15:])
	rec.PayloadType = PayloadType(getU16(e[19:]))
}

// seekMagic advances the reader until the next 4 bytes are the frame magic
// word, without consuming them.
func (r *Reader) seekMagic() error {
	for {
		b, err := r.r.Peek(4)
		if err != nil {
			return io.EOF
		}
		if string(b) == wireMagic {
			return nil
		}
		if _, err := r.r.Discard(1); err != nil {
			return io.EOF
		}
	}
}

func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func getU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU16(b []byte, v uint16) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
