package record

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleRecords() []*Record {
	open := NewOpenScope(ScopeClip, 0)
	open.SetContext(map[string]string{CtxSampleRate: "24576", CtxClipID: "c1"})
	data := NewData(SubtypeAudio)
	data.SetFloat64s([]float64{0.5, -0.25, 1.0})
	data.Seq = 7
	data.SourceID = 3
	data.Scope = 1
	data.ScopeType = ScopeClip
	spec := NewData(SubtypeSpectrum)
	spec.SetComplex128s([]complex128{1 + 2i, -3i})
	pcm := NewData(SubtypeAudio)
	pcm.SetPCM16([]int16{100, -100, 32767})
	empty := NewCloseScope(ScopeClip, 0)
	ctl := &Record{Kind: KindControl, Subtype: 9}
	return []*Record{open, data, spec, pcm, empty, ctl}
}

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := sampleRecords()
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write(%s): %v", r, err)
		}
	}
	if w.Count() != uint64(len(recs)) {
		t.Errorf("writer count = %d, want %d", w.Count(), len(recs))
	}
	r := NewReader(&buf)
	for i, want := range recs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("Read record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record %d mismatch:\n got %#v\nwant %#v", i, got, want)
		}
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF at end of stream, got %v", err)
	}
	if r.Count() != uint64(len(recs)) {
		t.Errorf("reader count = %d, want %d", r.Count(), len(recs))
	}
}

func TestWriteInvalidKind(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Write(&Record{}); err == nil {
		t.Error("writing a zero-kind record should fail")
	}
}

func TestWriteTooLarge(t *testing.T) {
	w := NewWriter(io.Discard)
	r := NewData(0)
	r.PayloadType = PayloadBytes
	r.Payload = make([]byte, MaxPayload+1)
	if err := w.Write(r); !errors.Is(err, ErrTooLarge) {
		t.Errorf("expected ErrTooLarge, got %v", err)
	}
}

func TestReadTruncatedMidRecord(t *testing.T) {
	rec := NewData(SubtypeAudio)
	rec.SetFloat64s([]float64{1, 2, 3, 4})
	enc := AppendBatchWire(nil, rec)
	for _, cut := range []int{5, batchHdrSize - 1, batchHdrSize + entryHdrSize + 3, len(enc) - 1} {
		r := NewReader(bytes.NewReader(enc[:cut]))
		if _, err := r.Read(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut=%d: expected ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

func TestReadCorruptPayloadResync(t *testing.T) {
	// Two single-record frames; corrupt a payload byte in the first. The
	// non-strict reader should skip to the second record.
	r1 := NewData(SubtypeAudio)
	r1.SetFloat64s([]float64{1, 2, 3})
	r2 := NewData(SubtypeAudio)
	r2.SetFloat64s([]float64{9, 8})
	enc := AppendBatchWire(nil, r1)
	enc[batchHdrSize+entryHdrSize+2] ^= 0xFF
	enc = AppendBatchWire(enc, r2)

	rd := NewReader(bytes.NewReader(enc))
	got, err := rd.Read()
	if err != nil {
		t.Fatalf("Read after corruption: %v", err)
	}
	if !reflect.DeepEqual(got, r2) {
		t.Errorf("resync read wrong record: %v", got)
	}
}

func TestReadCorruptStrict(t *testing.T) {
	r1 := NewData(SubtypeAudio)
	r1.SetFloat64s([]float64{1})
	enc := AppendBatchWire(nil, r1)
	enc[batchHdrSize+entryHdrSize] ^= 0x01
	rd := NewReader(bytes.NewReader(enc))
	rd.SetStrict(true)
	if _, err := rd.Read(); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("expected ErrBadChecksum in strict mode, got %v", err)
	}
}

func TestReadGarbagePrefix(t *testing.T) {
	rec := NewData(SubtypeAudio)
	rec.SetPCM16([]int16{42})
	garbage := []byte("this is not a record at all.....")
	enc := append(append([]byte{}, garbage...), AppendBatchWire(nil, rec)...)
	rd := NewReader(bytes.NewReader(enc))
	got, err := rd.Read()
	if err != nil {
		t.Fatalf("Read with garbage prefix: %v", err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("got %v, want %v", got, rec)
	}
}

func TestReadOversizedLength(t *testing.T) {
	rec := NewData(0)
	enc := AppendBatchWire(nil, rec)
	// Force the entry's length field beyond MaxPayload under a valid
	// batch CRC: a length the checksum vouches for is still refused.
	body := len(enc) - batchTrailerSize
	putU32(enc[batchHdrSize+21:], 0xFFFFFFFF)
	putU32(enc[body:], crc32.Checksum(enc[4:body], castagnoli))
	rd := NewReader(bytes.NewReader(enc))
	rd.SetStrict(true)
	if _, err := rd.Read(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("expected ErrTooLarge, got %v", err)
	}
}

func TestReadEmptyStream(t *testing.T) {
	rd := NewReader(bytes.NewReader(nil))
	if _, err := rd.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF on empty stream, got %v", err)
	}
}

// Property: any record with random header fields and payload bytes survives
// a wire round trip bit-exactly.
func TestQuickWireRoundTrip(t *testing.T) {
	f := func(kindSel uint8, subtype, scope, scopeType uint16, seq uint64, src uint32, payload []byte) bool {
		rec := &Record{
			Kind:        Kind(kindSel%5) + KindData,
			Subtype:     subtype,
			Scope:       scope,
			ScopeType:   ScopeType(scopeType),
			Seq:         seq,
			SourceID:    src,
			PayloadType: PayloadBytes,
			Payload:     payload,
		}
		if len(payload) == 0 {
			rec.Payload = nil
			rec.PayloadType = PayloadNone
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(rec); err != nil {
			return false
		}
		got, err := NewReader(&buf).Read()
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, rec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a stream of N single-record frames with one corrupted byte
// anywhere loses at most the affected record(s) and counts the damage
// once; the reader never loops forever or panics.
func TestQuickCorruptionRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var enc []byte
		const n = 5
		for i := 0; i < n; i++ {
			rec := NewData(uint16(i))
			rec.SetFloat64s([]float64{float64(i), float64(i) * 2})
			enc = AppendBatchWire(enc, rec)
		}
		flip := rng.Intn(len(enc))
		enc[flip] ^= byte(1 + rng.Intn(255))
		rd := NewReader(bytes.NewReader(enc))
		read := 0
		for {
			_, err := rd.Read()
			if err != nil {
				break
			}
			read++
			if read > n {
				t.Fatal("reader produced more records than written")
			}
		}
		if read < n-2 {
			t.Errorf("trial %d: lost too many records: read %d of %d (flip at %d)", trial, read, n, flip)
		}
		if c := rd.CorruptBatches(); c != 1 {
			t.Errorf("trial %d: CorruptBatches = %d, want 1 (flip at %d)", trial, c, flip)
		}
	}
}

func BenchmarkWireEncode(b *testing.B) {
	rec := NewData(SubtypeAudio)
	samples := make([]float64, 1024)
	for i := range samples {
		samples[i] = float64(i)
	}
	rec.SetFloat64s(samples)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendBatchWire(buf[:0], rec)
	}
}

func BenchmarkWireDecode(b *testing.B) {
	rec := NewData(SubtypeAudio)
	samples := make([]float64, 1024)
	rec.SetFloat64s(samples)
	enc := AppendBatchWire(nil, rec)
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := NewReader(bytes.NewReader(enc))
		if _, err := rd.Read(); err != nil {
			b.Fatal(err)
		}
	}
}
