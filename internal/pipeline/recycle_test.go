package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
)

// ownPayload is the payload of data record (src, seq) in the run-recycling
// tests: distinct per record, so a record decoded into while downstream
// still held it shows up as a payload that does not match its header.
func ownPayload(src uint32, seq uint64) []byte {
	b := make([]byte, 40)
	for i := range b {
		b[i] = byte(uint64(src)*31 + seq*7 + uint64(i))
	}
	return b
}

// fillOwn turns r into data record (src, seq) carrying its ownPayload.
func fillOwn(r *record.Record, src uint32, seq uint64) *record.Record {
	r.Kind, r.Subtype, r.SourceID, r.Seq = record.KindData, record.SubtypeAudio, src, seq
	r.PayloadType = record.PayloadBytes
	r.Payload = append(r.Payload[:0], ownPayload(src, seq)...)
	return r
}

// ownDesc names a record as the tests compare streams: data by source and
// seq, scope markers by kind and depth.
func ownDesc(r *record.Record) string {
	if r.Kind == record.KindData {
		return fmt.Sprintf("data %d:%d", r.SourceID, r.Seq)
	}
	return fmt.Sprintf("%s/%d", r.Kind, r.Scope)
}

// ownLedger follows the records a hosted chain holds, from the operator
// that takes each one in (or creates it) to the sink or operator that
// ends its stay. A record taken in again while still held is one the
// streamin decoded into too early.
type ownLedger struct {
	mu     sync.Mutex
	held   map[*record.Record]bool
	reused []string // records taken in again while held
	bad    []string // records whose payload no longer matches their header
	got    []string // what the sink saw, in order
}

func newOwnLedger() *ownLedger { return &ownLedger{held: make(map[*record.Record]bool)} }

func (l *ownLedger) take(r *record.Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held[r] {
		l.reused = append(l.reused, ownDesc(r))
	}
	l.held[r] = true
}

func (l *ownLedger) drop(r *record.Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.held, r)
}

// ownTake is the head operator: it enters every record into the ledger.
type ownTake struct{ l *ownLedger }

func (ownTake) Name() string { return "take" }

func (o ownTake) Process(r *record.Record, out Emitter) error {
	o.l.take(r)
	return out.Emit(r)
}

// ownSink checks and books every record it consumes; it keeps none.
type ownSink struct{ l *ownLedger }

func (*ownSink) Name() string { return "own" }

func (s *ownSink) Consume(r *record.Record) error {
	l := s.l
	l.mu.Lock()
	defer l.mu.Unlock()
	var want []byte // scope markers carry none
	if r.Kind == record.KindData {
		want = ownPayload(r.SourceID, r.Seq)
	}
	if !bytes.Equal(r.Payload, want) {
		l.bad = append(l.bad, ownDesc(r))
	}
	l.got = append(l.got, ownDesc(r))
	delete(l.held, r)
	return nil
}

// ownRunSink is ownSink taking whole runs, as a streamout does.
type ownRunSink struct{ ownSink }

func (s *ownRunSink) ConsumeRun(run []*record.Record) error {
	for _, r := range run {
		_ = s.Consume(r)
	}
	return nil
}

func (*ownRunSink) Flush() error { return nil }

// ownCutter is the final owner of its odd data inputs, as the cutter is
// of the audio it cuts: it releases them and emits the rest.
type ownCutter struct{ l *ownLedger }

func (ownCutter) Name() string { return "cutter" }

func (o ownCutter) Process(r *record.Record, out Emitter) error {
	if r.Kind == record.KindData && r.Seq%2 == 1 {
		o.l.drop(r)
		record.Release(r)
		return nil
	}
	return out.Emit(r)
}

// ownExpander emits two records of its own, from the record pool, after
// every data input: more records reach the sink than the run walked.
type ownExpander struct{ l *ownLedger }

func (ownExpander) Name() string { return "expander" }

func (o ownExpander) Process(r *record.Record, out Emitter) error {
	data, seq := r.Kind == record.KindData, r.Seq
	if err := out.Emit(r); err != nil || !data {
		return err
	}
	for k := uint64(0); k < 2; k++ {
		c := fillOwn(record.GetRecord(), 7, 2*seq+k)
		o.l.take(c)
		if err := out.Emit(c); err != nil {
			return err
		}
	}
	return nil
}

// ownDelay holds the last depth records it was given, across runs, and
// emits each once depth newer ones have arrived (the rest at Flush).
type ownDelay struct {
	depth int
	q     []*record.Record
}

func (*ownDelay) Name() string { return "delay" }

func (o *ownDelay) Process(r *record.Record, out Emitter) error {
	if o.q = append(o.q, r); len(o.q) <= o.depth {
		return nil
	}
	head := o.q[0]
	o.q = o.q[1:]
	return out.Emit(head)
}

func (o *ownDelay) Flush(out Emitter) error {
	for _, r := range o.q {
		if err := out.Emit(r); err != nil {
			return err
		}
	}
	o.q = nil
	return nil
}

// ownStream is the upstream side of a run-recycling case: an open session
// (and, with clip, an open clip inside it) holding data records 1..n.
func ownStream(n int, clip bool) []*record.Record {
	recs := []*record.Record{record.NewOpenScope(record.ScopeSession, 0)}
	depth := uint16(1)
	if clip {
		recs = append(recs, record.NewOpenScope(record.ScopeClip, 1))
		depth = 2
	}
	for seq := 1; seq <= n; seq++ {
		r := fillOwn(record.NewData(record.SubtypeAudio), 1, uint64(seq))
		r.Scope = depth
		recs = append(recs, r)
	}
	return recs
}

func ownDescs(recs []*record.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = ownDesc(r)
	}
	return out
}

// TestRunRecycleOwnership runs a pooled streamin's records through chains
// that break the one-record-in, one-out shape run-owned recycling leans
// on, with and without a run queue, into a sink that takes runs (as a
// streamout does) and one that takes records. Upstream batches are 100
// records, so every batch is two runs. In every case the sink sees the
// expected stream with every payload intact, and no record is taken into
// the chain again while the chain still holds it.
func TestRunRecycleOwnership(t *testing.T) {
	const n = 1000
	closeSession := record.NewCloseScope(record.ScopeSession, 0)
	stream := append(ownStream(n, false), closeSession)
	plain := ownDescs(stream)

	var strays []*record.Record
	for i, r := range stream {
		strays = append(strays, r)
		if i%10 == 5 { // a clip close with no clip open: the tracker drops it
			strays = append(strays, record.NewCloseScope(record.ScopeClip, 1))
		}
	}
	var even, expanded []string
	for _, d := range plain {
		var seq uint64
		if _, err := fmt.Sscanf(d, "data 1:%d", &seq); err != nil {
			even = append(even, d)
			expanded = append(expanded, d)
			continue
		}
		if seq%2 == 0 {
			even = append(even, d)
		}
		expanded = append(expanded, d, fmt.Sprintf("data 7:%d", 2*seq), fmt.Sprintf("data 7:%d", 2*seq+1))
	}
	bare := stream[1 : len(stream)-1] // data alone: nothing forces the last records out
	died := ownStream(n, true)        // the upstream dies with the clip open
	repaired := append(ownDescs(died), "BadCloseScope/1", "BadCloseScope/0")

	cases := []struct {
		name string
		send []*record.Record
		ops  func(*ownLedger) []Operator
		want []string
	}{
		{"operator releases inputs", stream, func(l *ownLedger) []Operator { return []Operator{ownCutter{l}} }, even},
		{"operator creates records", stream, func(l *ownLedger) []Operator { return []Operator{ownExpander{l}} }, expanded},
		{"operator holds records across runs", stream, func(*ownLedger) []Operator { return []Operator{&ownDelay{depth: 150}} }, plain},
		{"operator holds records past the end", bare, func(*ownLedger) []Operator { return []Operator{&ownDelay{depth: 150}} }, ownDescs(bare)},
		{"stray closes dropped", strays, func(*ownLedger) []Operator { return nil }, plain},
		{"repair after upstream dies", died, func(*ownLedger) []Operator { return []Operator{&ownDelay{depth: 150}} }, repaired},
	}
	for _, tc := range cases {
		for _, queue := range []int{0, DefaultQueueSize} {
			for _, runs := range []bool{true, false} {
				name := fmt.Sprintf("%s/queue=%d/runsink=%v", tc.name, queue, runs)
				t.Run(name, func(t *testing.T) {
					l := newOwnLedger()
					var sink Sink = &ownSink{l}
					if runs {
						sink = &ownRunSink{ownSink{l}}
					}
					runOwnCase(t, queue, tc.send, append([]Operator{ownTake{l}}, tc.ops(l)...), sink)
					l.mu.Lock()
					defer l.mu.Unlock()
					if len(l.reused) > 0 {
						t.Errorf("%d records taken in again while held, first %s", len(l.reused), l.reused[0])
					}
					if len(l.bad) > 0 {
						t.Errorf("%d records with a damaged payload, first %s", len(l.bad), l.bad[0])
					}
					if !slices.Equal(l.got, tc.want) {
						t.Errorf("sink saw %d records, want %d; first difference at %s", len(l.got), len(tc.want), firstDiff(l.got, tc.want))
					}
				})
			}
		}
	}
}

func firstDiff(a, b []string) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("%d: %q, want %q", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("%d (one stream ends)", min(len(a), len(b)))
}

// runOwnCase sends recs to a pooled streamin in raw 100-record batch
// frames over one connection, closes it, and runs the streamin through
// ops into sink until the pipeline has drained.
func runOwnCase(t *testing.T, queue int, recs []*record.Record, ops []Operator, sink Sink) {
	t.Helper()
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.Pooled = true
	in.QueueSize = queue
	in.MaxConns = 1
	p := New().SetSource(in).AppendOps("own", ops...).SetSink(sink)
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	defer in.Close()

	conn, err := net.Dial("tcp", in.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for len(recs) > 0 {
		k := min(100, len(recs))
		if _, err := conn.Write(record.AppendBatchWire(nil, recs[:k]...)); err != nil {
			t.Fatal(err)
		}
		recs = recs[k:]
	}
	conn.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline did not drain")
	}
}

// blockOp emits every record, first copies pooled copies of it when it is
// the trigger, and after emitting the trigger blocks until release is
// closed, so the run the trigger arrived in cannot end before then.
type blockOp struct {
	trigger func(*record.Record) bool
	copies  int
	release chan struct{}
}

func (blockOp) Name() string { return "block" }

func (b blockOp) Process(r *record.Record, out Emitter) error {
	if !b.trigger(r) {
		return out.Emit(r)
	}
	for range b.copies {
		if err := out.Emit(record.GetCopy(r)); err != nil {
			return err
		}
	}
	if err := out.Emit(r); err != nil {
		return err
	}
	<-b.release
	return nil
}

// descCollector books every record a streamin receives.
type descCollector struct {
	mu  sync.Mutex
	got []string
}

func (c *descCollector) Emit(r *record.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, ownDesc(r))
	return nil
}

func (c *descCollector) count(desc string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, d := range c.got {
		if d == desc {
			n++
		}
	}
	return n
}

// TestConsumeRunForcedRecordsLeaveMidRun: a hosted unit collects a run's
// records for its streamout and hands them over at the run's end, except
// that a top-level close or a payload of DefaultNoCopyMin bytes goes out
// at once, and so does a run's worth of waiting records. Each trigger
// arrives mid-run (in one upstream batch with records after it), the
// operator blocks after emitting it, and the downstream streamin must see
// it while the run is still open. The streamout's delay timer is an hour.
func TestConsumeRunForcedRecordsLeaveMidRun(t *testing.T) {
	big := fillOwn(record.NewData(record.SubtypeAudio), 1, 2)
	big.Payload = make([]byte, record.DefaultNoCopyMin)
	big.Scope = 1
	bigDesc := ownDesc(big)
	data := func(seq uint64) *record.Record {
		r := fillOwn(record.NewData(record.SubtypeAudio), 1, seq)
		r.Scope = 1
		return r
	}
	open := record.NewOpenScope(record.ScopeSession, 0)
	closeTop := record.NewCloseScope(record.ScopeSession, 0)
	cases := []struct {
		name    string
		batch   []*record.Record
		trigger string
		copies  int
		want    int // records named trigger downstream must see
	}{
		{"top-level close", []*record.Record{open, data(1), closeTop, open, data(3), data(4)}, "CloseScope/0", 0, 1},
		{"large payload", []*record.Record{open, data(1), big, data(3), data(4)}, bigDesc, 0, 1},
		// The first runCap records waiting (the open, data 1 and runCap-2
		// copies of data 2) go out together.
		{"run of waiting records", []*record.Record{open, data(1), data(2), data(3)}, "data 1:2", runCap - 1, runCap - 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst, err := NewStreamIn("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			col := &descCollector{}
			dstDone := make(chan error, 1)
			go func() { dstDone <- dst.Run(col) }()
			defer func() { dst.Close(); <-dstDone }()

			in, err := NewStreamIn("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			in.Pooled = true
			in.QueueSize = DefaultQueueSize
			op := blockOp{
				trigger: func(r *record.Record) bool { return ownDesc(r) == tc.trigger },
				copies:  tc.copies,
				release: make(chan struct{}),
			}
			node := NewNode("host-a", NewRegistry())
			defer node.StopAll()
			defer close(op.release)
			if err := node.HostUnit("unit", "", in, NewSegment("unit", op), NewStreamOutBatched(dst.Addr(), hourPolicy())); err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", in.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(record.AppendBatchWire(nil, tc.batch...)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, tc.trigger+" downstream while its run is open", func() bool {
				return col.count(tc.trigger) == tc.want
			})
		})
	}
}
