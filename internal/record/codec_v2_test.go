package record

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"testing"
)

// v2TestRecords returns a deterministic mix of record shapes.
func v2TestRecords(n int) []*Record {
	out := make([]*Record, n)
	for i := range out {
		r := NewData(SubtypeAudio)
		r.Scope = uint16(i % 3)
		r.Seq = uint64(1000 + i)
		r.SourceID = uint32(7 + i)
		pcm := make([]int16, 8+i%5)
		for j := range pcm {
			pcm[j] = int16(i*31 + j)
		}
		r.SetPCM16(pcm)
		out[i] = r
	}
	return out
}

func sameRecord(t *testing.T, got, want *Record, i int) {
	t.Helper()
	if got.Kind != want.Kind || got.Subtype != want.Subtype || got.Scope != want.Scope ||
		got.ScopeType != want.ScopeType || got.Seq != want.Seq ||
		got.SourceID != want.SourceID || got.PayloadType != want.PayloadType ||
		!bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, want)
	}
}

func TestBatchWireRoundTrip(t *testing.T) {
	recs := v2TestRecords(7)
	wire := AppendBatchWire(nil, recs...)
	rd := NewReader(bytes.NewReader(wire))
	read := 0
	for got, err := rd.Read(); err == nil; got, err = rd.Read() {
		if read < len(recs) {
			sameRecord(t, got, recs[read], read)
		}
		read++
	}
	if _, err := rd.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("after batch: %v, want EOF", err)
	}
	if read != 7 {
		t.Fatalf("Count = %d, want 7", read)
	}
}

// TestCorruptBatchSkipped is the skip-mode resync contract: damage to one
// frame loses exactly that frame — the reader counts it once, re-syncs on
// the next frame magic, and keeps decoding the rest of the stream. Damage
// to a batch body drops the batch whole; damage to a batch header (the
// length cannot be trusted) and foreign bytes between frames are crossed
// byte-wise.
func TestCorruptBatchSkipped(t *testing.T) {
	recs := v2TestRecords(9)
	// drv1 is a well-formed frame of the retired per-record framing: to
	// this reader, foreign bytes.
	drv1 := appendEntryHeader([]byte("DRV1"), recs[0])
	drv1 = appendU16(drv1, uint16(crc32.ChecksumIEEE(drv1[4:])))
	drv1 = append(drv1, recs[0].Payload...)
	drv1 = appendU32(drv1, crc32.ChecksumIEEE(drv1[4:]))

	for _, tc := range []struct {
		name   string
		mangle func(wire []byte, second, third int) []byte
		want   []int // indexes into recs that must survive, in order
		strict error // what a strict reader reports instead of skipping
	}{
		{"payload flip", func(w []byte, second, _ int) []byte {
			w[second+batchHdrSize+entryHdrSize+2] ^= 0x40
			return w
		}, []int{0, 1, 2, 6, 7, 8}, ErrBadChecksum},
		{"header flip", func(w []byte, second, _ int) []byte {
			w[second+5] ^= 0x01 // count, guarded by the header CRC
			return w
		}, []int{0, 1, 2, 6, 7, 8}, ErrBadChecksum},
		{"header flip in last batch", func(w []byte, _, third int) []byte {
			w[third+6] ^= 0xFF // bodyLen: nothing after to find, no phantoms
			return w
		}, []int{0, 1, 2, 3, 4, 5}, ErrBadChecksum},
		{"stray DRV1 frame between batches", func(w []byte, second, _ int) []byte {
			return append(append(append([]byte{}, w[:second]...), drv1...), w[second:]...)
		}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, ErrBadMagic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := AppendBatchWire(nil, recs[0:3]...)
			second := len(wire)
			wire = AppendBatchWire(wire, recs[3:6]...)
			third := len(wire)
			wire = AppendBatchWire(wire, recs[6:9]...)
			wire = tc.mangle(wire, second, third)

			rd := NewReader(bytes.NewReader(wire))
			for i, want := range tc.want {
				got, err := rd.Read()
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				sameRecord(t, got, recs[want], want)
			}
			if _, err := rd.Read(); !errors.Is(err, io.EOF) {
				t.Fatalf("after %d records: %v, want EOF", len(tc.want), err)
			}
			if rd.CorruptBatches() != 1 {
				t.Fatalf("CorruptBatches = %d, want 1", rd.CorruptBatches())
			}

			// Strict mode surfaces the same damage as an error instead.
			rd = NewReader(bytes.NewReader(wire))
			var err error
			for err == nil {
				_, err = rd.readStrict()
			}
			if !errors.Is(err, tc.strict) {
				t.Fatalf("strict: %v, want %v", err, tc.strict)
			}
		})
	}
}

// TestTornBatch ends the stream mid-batch: the reader reports
// io.ErrUnexpectedEOF, the signal StreamIn uses to repair open scopes.
func TestTornBatch(t *testing.T) {
	recs := v2TestRecords(4)
	wire := AppendBatchWire(nil, recs...)
	for _, cut := range []int{len(wire) - 1, len(wire) - batchTrailerSize - 3, batchHdrSize + 5, 6, 2} {
		rd := NewReader(bytes.NewReader(wire[:cut]))
		var err error
		for err == nil {
			_, err = rd.Read()
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("cut at %d: %v, want (Unexpected)EOF", cut, err)
		}
	}
}

// TestLargeBatchSpill drives a batch bigger than the reader's bufio
// window through the spill path, and a corrupted large batch through its
// skip path.
func TestLargeBatchSpill(t *testing.T) {
	big := make([]*Record, 4)
	for i := range big {
		r := NewData(SubtypeAudio)
		r.Seq = uint64(i)
		payload := make([]byte, 3000)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		r.SetBytes(payload)
		big[i] = r
	}
	wire := AppendBatchWire(nil, big...)
	tail := NewData(SubtypeAudio)
	tail.Seq = 99
	tail.SetBytes([]byte{1, 2, 3})
	wire = AppendBatchWire(wire, tail)

	rd := NewReaderSize(bytes.NewReader(wire), 4096) // window << batch size
	for i, want := range big {
		got, err := rd.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		sameRecord(t, got, want, i)
	}
	got, err := rd.Read()
	if err != nil {
		t.Fatalf("tail read: %v", err)
	}
	sameRecord(t, got, tail, 4)

	// Corrupt the large batch: the spill path must drop it whole and
	// still decode the small batch behind it.
	wire[batchHdrSize+entryHdrSize+100] ^= 0x01
	rd = NewReaderSize(bytes.NewReader(wire), 4096)
	got, err = rd.Read()
	if err != nil {
		t.Fatalf("read after corrupt spill batch: %v", err)
	}
	sameRecord(t, got, tail, 0)
	if rd.CorruptBatches() != 1 {
		t.Fatalf("CorruptBatches = %d, want 1", rd.CorruptBatches())
	}
}

// TestWritevLargePayloads exercises the by-reference payload path end to
// end over a real TCP connection (net.Buffers takes the writev path only
// on a TCPConn) and proves the flush happens inside the same Write call,
// so the caller may recycle its payload immediately after.
func TestWritevLargePayloads(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type result struct {
		recs []*Record
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer conn.Close()
		rd := NewReader(conn)
		var rs []*Record
		for {
			r, err := rd.Read()
			if errors.Is(err, io.EOF) {
				resCh <- result{recs: rs}
				return
			}
			if err != nil {
				resCh <- result{err: err}
				return
			}
			rs = append(rs, r)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	bw := NewBatchWriter(conn, DefaultBatchConfig())
	small := NewData(SubtypeAudio)
	small.Seq = 1
	small.SetBytes([]byte("small"))
	large := NewData(SubtypeAudio)
	large.Seq = 2
	payload := make([]byte, DefaultNoCopyMin*4)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	large.SetBytes(payload)
	wantLarge := append([]byte(nil), payload...)

	if err := bw.Write(small); err != nil {
		t.Fatal(err)
	}
	if err := bw.Write(large); err != nil { // forces the vectored flush
		t.Fatal(err)
	}
	if bw.Pending() != 0 {
		t.Fatalf("large payload did not force a flush: pending=%d", bw.Pending())
	}
	// The contract says the writer holds no reference now: clobber the
	// payload the caller still owns.
	for i := range payload {
		payload[i] = 0xEE
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	res := <-resCh
	if res.err != nil {
		t.Fatalf("receiver: %v", res.err)
	}
	if len(res.recs) != 2 {
		t.Fatalf("receiver decoded %d records, want 2", len(res.recs))
	}
	if !bytes.Equal(res.recs[1].Payload, wantLarge) {
		t.Fatal("large payload corrupted across the writev path")
	}
}

// TestMaterializeOnFlushError pins the ownership contract on the failure
// path: a failed flush of an ext-bearing batch must copy the payload into
// the writer's own buffer before returning, so the caller can recycle its
// record and a later retry still delivers the original bytes.
func TestMaterializeOnFlushError(t *testing.T) {
	bw := NewBatchWriter(errWriter{}, DefaultBatchConfig())
	r := NewData(SubtypeAudio)
	payload := make([]byte, DefaultNoCopyMin*2)
	for i := range payload {
		payload[i] = 0x5A
	}
	r.SetBytes(payload)
	want := append([]byte(nil), payload...)
	if err := bw.Write(r); err == nil {
		t.Fatal("flush to broken output succeeded")
	}
	if bw.Pending() != 1 {
		t.Fatalf("failed flush dropped the batch: pending=%d", bw.Pending())
	}
	for i := range payload {
		payload[i] = 0x00 // caller reuses its buffer
	}
	var good bytes.Buffer
	bw.SetOutput(&good)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	rd := NewReader(bytes.NewReader(good.Bytes()))
	got, err := rd.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, want) {
		t.Fatal("retried batch delivered the clobbered payload: ext not materialized on error")
	}
}

// TestAdaptiveBatchTrigger pins the adaptive policy: count-triggered
// flushes grow the trigger toward AdaptMax, mostly-empty flushes shrink
// it back to MaxRecords.
func TestAdaptiveBatchTrigger(t *testing.T) {
	cw := &countingWriter{}
	bw := NewBatchWriter(cw, BatchConfig{MaxRecords: 4, AdaptMax: 16})
	feed := func(n int) {
		for i := 0; i < n; i++ {
			if err := bw.Write(batchData(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(4) // full batch at trigger 4 -> grows to 8
	if cw.writes != 1 {
		t.Fatalf("writes = %d, want 1", cw.writes)
	}
	feed(8) // full batch at trigger 8 -> grows to 16
	if cw.writes != 2 {
		t.Fatalf("writes = %d, want 2 (trigger did not grow to 8)", cw.writes)
	}
	feed(16) // full batch at cap 16
	if cw.writes != 3 {
		t.Fatalf("writes = %d, want 3 (trigger did not grow to 16)", cw.writes)
	}
	// Idle stream: two records then an explicit flush (the delay-timer
	// shape) is <= trigger/4, so the trigger halves.
	feed(2)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	feed(2)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Trigger is now 4 again: four records must flush on their own.
	feed(4)
	if cw.writes != 6 {
		t.Fatalf("writes = %d, want 6 (trigger did not shrink back to 4)", cw.writes)
	}
	if got := len(readAll(t, cw.Bytes())); got != 36 {
		t.Fatalf("decoded %d records, want 36", got)
	}
}

// TestBatchCountCap proves a batch can never exceed the u16 count field:
// the writer forces a flush at MaxBatchRecords even when the configured
// triggers would allow more.
func TestBatchCountCap(t *testing.T) {
	bw := NewBatchWriter(io.Discard, BatchConfig{
		MaxRecords: MaxBatchRecords, AdaptMax: MaxBatchRecords, MaxBytes: 1 << 30,
	})
	r := NewData(SubtypeAudio)
	r.SetBytes([]byte{1})
	for i := 0; i < MaxBatchRecords-1; i++ {
		if err := bw.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if bw.ShouldFlush() {
		t.Fatal("flush forced before the count cap")
	}
	if err := bw.Add(r); err != nil {
		t.Fatal(err)
	}
	if !bw.ShouldFlush() {
		t.Fatal("count at MaxBatchRecords did not force a flush")
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderResetRecyclesPend ensures a Reset mid-batch returns the
// undelivered pooled records to the pool rather than leaking them.
func TestReaderResetRecyclesPend(t *testing.T) {
	wire := AppendBatchWire(nil, v2TestRecords(5)...)
	rd := NewReader(bytes.NewReader(wire))
	rd.SetPooled(true)
	first, err := rd.Read()
	if err != nil {
		t.Fatal(err)
	}
	Release(first)
	rd.Reset(bytes.NewReader(wire)) // 4 records still pending
	n := 0
	for {
		r, err := rd.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		Release(r)
	}
	if n != 5 {
		t.Fatalf("decoded %d records after Reset, want 5", n)
	}
}
