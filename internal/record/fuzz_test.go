package record

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz targets for the wire codec. FuzzReader throws arbitrary bytes at
// the decoder — it must terminate without panicking and without handing
// back invalid records, whatever the input claims about lengths, counts,
// or checksums. FuzzBatchRoundTrip fuzzes the field space and checks a
// batch and per-record frames decode back to the exact input. Seed corpus lives in
// testdata/fuzz/ (regenerate with -update-golden); CI runs each target
// briefly on every push.

// fuzzReaderSeeds returns the committed seed inputs for FuzzReader:
// well-formed streams of batch and single-record frames plus mutations that aim at each
// validation branch (bad magic, bad header CRC, bad batch CRC, torn
// frame, absurd lengths).
func fuzzReaderSeeds(t testing.TB) [][]byte {
	recs := v2TestRecords(4)
	single := AppendBatchWire(nil, recs[0])
	single = AppendBatchWire(single, recs[1])
	v2 := AppendBatchWire(nil, recs...)
	mixed := append(append([]byte{}, single...), v2...)

	badBatchCRC := append([]byte{}, v2...)
	badBatchCRC[len(badBatchCRC)-1] ^= 0xFF
	badHdrCRC := append([]byte{}, v2...)
	badHdrCRC[10] ^= 0xFF
	badLen := append([]byte{}, v2...)
	putU32(badLen[6:], 0xFFFFFFFF)
	torn := v2[:len(v2)/2]
	garbagePrefix := append([]byte("DRVX\x00\x01garbage DRV"), v2...)

	return [][]byte{
		single, v2, mixed, badBatchCRC, badHdrCRC, badLen, torn, garbagePrefix,
		[]byte("DRV"), []byte("DRV2"), {},
	}
}

func FuzzReader(f *testing.F) {
	for _, s := range fuzzReaderSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []struct {
			strict, pooled bool
		}{{false, false}, {false, true}, {true, false}} {
			rd := NewReaderSize(bytes.NewReader(data), 512)
			rd.SetStrict(mode.strict)
			rd.SetPooled(mode.pooled)
			for i := 0; i <= len(data); i++ { // decoder must terminate
				r, err := rd.Read()
				if err != nil {
					break
				}
				if !r.Kind.Valid() || len(r.Payload) > MaxPayload {
					t.Fatalf("decoder produced invalid record: %+v", r)
				}
				if mode.pooled {
					Release(r)
				}
			}
		}
		for _, strict := range []bool{false, true} {
			want, wantCorrupt := decodeAll(data, strict)
			got, gotCorrupt := decodeRuns(t, data, strict, 3)
			if len(got) != len(want) || gotCorrupt != wantCorrupt {
				t.Fatalf("strict=%v: run-wise decode gave %d records, %d corrupt; record-wise %d, %d",
					strict, len(got), gotCorrupt, len(want), wantCorrupt)
			}
			for i := range want {
				sameRecord(t, got[i], want[i], i)
			}
		}
	})
}

// decodeAll reads data record by record until the first error.
func decodeAll(data []byte, strict bool) ([]*Record, uint64) {
	rd := NewReaderSize(bytes.NewReader(data), 512)
	rd.SetStrict(strict)
	var out []*Record
	for r, err := rd.Read(); err == nil; r, err = rd.Read() {
		out = append(out, r)
	}
	return out, rd.CorruptBatches()
}

// decodeRuns reads data the way a batch-granular consumer does: a run is
// the records of one open batch, cut when BatchLeft reaches 0 or the run
// holds runCap records. A Read issued while BatchLeft is positive must
// succeed and consume exactly one record of the batch.
func decodeRuns(t *testing.T, data []byte, strict bool, runCap int) ([]*Record, uint64) {
	rd := NewReaderSize(bytes.NewReader(data), 512)
	rd.SetStrict(strict)
	var out []*Record
	for {
		r, err := rd.Read()
		if err != nil {
			return out, rd.CorruptBatches()
		}
		out = append(out, r)
		for n := 1; n < runCap && rd.BatchLeft() > 0; n++ {
			left := rd.BatchLeft()
			r, err := rd.Read()
			if err != nil || rd.BatchLeft() != left-1 {
				t.Fatalf("read inside an open batch (%d left): err=%v, %d left after", left, err, rd.BatchLeft())
			}
			out = append(out, r)
		}
	}
}

func FuzzBatchRoundTrip(f *testing.F) {
	f.Add([]byte("pcm"), []byte(""), uint16(1), uint64(42), uint32(7))
	f.Add([]byte{}, bytes.Repeat([]byte{0xA5}, 5000), uint16(4), uint64(0), uint32(0xFFFFFFFF))
	f.Add([]byte{0, 1}, []byte{2, 3}, uint16(100), uint64(1<<60), uint32(1))
	f.Fuzz(func(t *testing.T, p1, p2 []byte, subtype uint16, seq uint64, src uint32) {
		in := []*Record{
			{Kind: KindData, Subtype: subtype, Scope: 1, ScopeType: ScopeClip,
				Seq: seq, SourceID: src, PayloadType: PayloadBytes, Payload: p1},
			{Kind: KindCloseScope, Subtype: subtype, Scope: 1, ScopeType: ScopeClip,
				Seq: seq + 1, SourceID: src, PayloadType: PayloadNone, Payload: p2},
		}
		var single []byte
		for _, r := range in {
			single = AppendBatchWire(single, r)
		}
		batch := AppendBatchWire(nil, in...)
		for name, wire := range map[string][]byte{"single": single, "batch": batch} {
			rd := NewReader(bytes.NewReader(wire))
			rd.SetStrict(true)
			for i, want := range in {
				got, err := rd.Read()
				if err != nil {
					t.Fatalf("%s decode %d: %v", name, i, err)
				}
				sameRecord(t, got, want, i)
			}
			if _, err := rd.Read(); !errors.Is(err, io.EOF) {
				t.Fatalf("%s trailing: %v", name, err)
			}
		}
	})
}

// TestFuzzCorpusCommitted regenerates (under -update-golden) and then
// verifies the committed seed-corpus files, so the seeds evolve with the
// format instead of rotting.
func TestFuzzCorpusCommitted(t *testing.T) {
	writeSeed := func(dir, name string, args ...any) {
		path := filepath.Join("testdata", "fuzz", dir, name)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.WriteString("go test fuzz v1\n")
			for _, a := range args {
				switch v := a.(type) {
				case []byte:
					fmt.Fprintf(&buf, "[]byte(%q)\n", v)
				default:
					fmt.Fprintf(&buf, "%T(%v)\n", v, v)
				}
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("missing committed fuzz seed: %v (run with -update-golden)", err)
		}
	}
	for i, s := range fuzzReaderSeeds(t) {
		writeSeed("FuzzReader", fmt.Sprintf("seed_%02d", i), s)
	}
	writeSeed("FuzzBatchRoundTrip", "seed_00",
		[]byte("pcm"), []byte(""), uint16(1), uint64(42), uint32(7))
	writeSeed("FuzzBatchRoundTrip", "seed_01",
		[]byte{}, bytes.Repeat([]byte{0xA5}, 5000), uint16(4), uint64(0), uint32(0xFFFFFFFF))
}
