package replica

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
)

// collectEmitter gathers emitted records for assertions.
type collectEmitter struct {
	mu   sync.Mutex
	recs []*record.Record
}

func (c *collectEmitter) Emit(r *record.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r.CloneInto(new(record.Record)))
	return nil
}

func (c *collectEmitter) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

func (c *collectEmitter) snapshot() []*record.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*record.Record(nil), c.recs...)
}

func taggedData(t *testing.T, stream uint32, epoch uint16, n uint64, val float64) *record.Record {
	t.Helper()
	r := record.NewData(record.SubtypeAudio)
	r.SetFloat64s([]float64{val})
	record.TagReplica(r, stream, epoch, n)
	return r
}

func waitCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMergerDedup feeds the merger the same tagged stream over three legs
// with different interleavings and expects exactly-once, in-order output.
func TestMergerDedup(t *testing.T) {
	m, err := NewMerger(MergerConfig{Group: "g", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectEmitter{}
	done := make(chan error, 1)
	go func() { done <- m.Run(sink) }()

	const n = 500
	stream := record.ReplicaStreamID("g")
	var wg sync.WaitGroup
	for leg := 0; leg < 3; leg++ {
		wg.Add(1)
		go func(leg int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", m.Addr())
			if err != nil {
				t.Errorf("leg %d: %v", leg, err)
				return
			}
			defer conn.Close()
			w := record.NewWriter(conn)
			for i := 0; i < n; i++ {
				if err := w.Write(taggedData(t, stream, 1, uint64(i), float64(i))); err != nil {
					t.Errorf("leg %d write %d: %v", leg, i, err)
					return
				}
			}
		}(leg)
	}
	wg.Wait()
	waitCond(t, 5*time.Second, "deduped records", func() bool { return sink.len() >= n })
	// Conservation: every redundant copy must be read and discarded
	// before teardown severs the legs.
	waitCond(t, 5*time.Second, "redundant copies discarded", func() bool { return m.Dups() == 2*n })
	_ = m.Close()
	if err := <-done; err != nil {
		t.Fatalf("merger run: %v", err)
	}

	recs := sink.snapshot()
	if len(recs) != n {
		t.Fatalf("emitted %d records, want exactly %d", len(recs), n)
	}
	for i, r := range recs {
		if _, seq, ok := record.ReplicaTag(r, stream); !ok || seq != uint64(i) {
			t.Fatalf("record %d out of order: tag ok=%v seq=%d", i, ok, seq)
		}
	}
	if m.Skipped() != 0 || m.Untagged() != 0 {
		t.Errorf("skipped=%d untagged=%d, want 0", m.Skipped(), m.Untagged())
	}
}

// TestMergerReordersAcrossLegs delivers disjoint halves of the sequence on
// two legs (as if each leg raced ahead on different stretches) and expects
// the merger's window to reassemble the order.
func TestMergerReordersAcrossLegs(t *testing.T) {
	m, err := NewMerger(MergerConfig{Group: "g", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectEmitter{}
	go func() { _ = m.Run(sink) }()
	defer m.Close()

	stream := record.ReplicaStreamID("g")
	write := func(conn net.Conn, seqs []uint64) {
		w := record.NewWriter(conn)
		for _, s := range seqs {
			if err := w.Write(taggedData(t, stream, 1, s, float64(s))); err != nil {
				t.Errorf("write %d: %v", s, err)
			}
		}
	}
	a, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Record 0 anchors the sequence (a fresh merger adopts its position
	// from the first record it observes).
	write(a, []uint64{0})
	waitCond(t, 2*time.Second, "head emitted", func() bool { return sink.len() == 1 })
	// Leg b is "ahead": its records buffer in the window until leg a
	// supplies the missing stretch.
	write(b, []uint64{3, 4, 5})
	waitCond(t, 2*time.Second, "window buffering", func() bool {
		d, _ := m.QueueDepth()
		return d == 3
	})
	if sink.len() != 1 {
		t.Fatalf("emitted %d records before the gap was filled", sink.len())
	}
	write(a, []uint64{1, 2})
	waitCond(t, 2*time.Second, "reassembled output", func() bool { return sink.len() == 6 })
	for i, r := range sink.snapshot() {
		if _, seq, _ := record.ReplicaTag(r, stream); seq != uint64(i) {
			t.Fatalf("record %d: seq %d, want %d", i, seq, i)
		}
	}
}

// TestMergerWindowSkip saturates the reorder window behind a gap that no
// leg will ever fill and expects the merger to skip forward, count the
// loss, and repair the scope structure.
func TestMergerWindowSkip(t *testing.T) {
	m, err := NewMerger(MergerConfig{Group: "g", ListenAddr: "127.0.0.1:0", Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectEmitter{}
	go func() { _ = m.Run(sink) }()
	defer m.Close()

	stream := record.ReplicaStreamID("g")
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := record.NewWriter(conn)
	// Open a scope, then jump the sequence: records 2..10 buffer behind
	// the missing record 1 until the 9-deep window overflows its bound of
	// 8 and the merger skips.
	open := record.NewOpenScope(record.ScopeClip, 0)
	record.TagReplica(open, stream, 1, 0)
	if err := w.Write(open); err != nil {
		t.Fatal(err)
	}
	for i := uint64(2); i <= 10; i++ {
		if err := w.Write(taggedData(t, stream, 1, i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, 2*time.Second, "gap skip", func() bool { return m.Skipped() > 0 })
	waitCond(t, 2*time.Second, "post-skip drain", func() bool { return sink.len() >= 10 })
	if m.Skipped() != 1 {
		t.Errorf("skipped = %d, want 1 (record 1)", m.Skipped())
	}
	// The open scope preceding the gap must have been repaired before the
	// post-gap records were emitted.
	recs := sink.snapshot()
	if recs[0].Kind != record.KindOpenScope || recs[1].Kind != record.KindBadCloseScope {
		t.Fatalf("expected open + repair at the head, got %v then %v", recs[0].Kind, recs[1].Kind)
	}
	if m.BadCloses() != 1 {
		t.Errorf("repairs = %d, want 1", m.BadCloses())
	}
}

// TestMergerEpochs verifies a new splitter incarnation resets the dedup
// state and stale-epoch traffic is discarded.
func TestMergerEpochs(t *testing.T) {
	m, err := NewMerger(MergerConfig{Group: "g", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectEmitter{}
	go func() { _ = m.Run(sink) }()
	defer m.Close()

	stream := record.ReplicaStreamID("g")
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := record.NewWriter(conn)
	for i := uint64(0); i < 3; i++ {
		if err := w.Write(taggedData(t, stream, 1, i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 2 restarts numbering from zero: accepted, not deduplicated.
	for i := uint64(0); i < 3; i++ {
		if err := w.Write(taggedData(t, stream, 2, i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// A stale epoch-1 straggler must be dropped.
	if err := w.Write(taggedData(t, stream, 1, 99, 0)); err != nil {
		t.Fatal(err)
	}
	// An untagged record (wrong stream) must be dropped too.
	if err := w.Write(taggedData(t, stream+1, 2, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(taggedData(t, stream, 2, 3, 0)); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 2*time.Second, "epoch-2 output", func() bool { return sink.len() == 7 })
	if m.Dups() != 1 {
		t.Errorf("dups = %d, want 1 (the stale-epoch straggler)", m.Dups())
	}
	if m.Untagged() != 1 {
		t.Errorf("untagged = %d, want 1", m.Untagged())
	}
}

// TestSplitterFansOutAndRetags runs a splitter over two live receivers and
// checks every record reaches both legs carrying the splitter's tags.
func TestSplitterFansOutAndRetags(t *testing.T) {
	recv := func() (*pipeline.StreamIn, *collectEmitter, chan struct{}) {
		in, err := pipeline.NewStreamIn("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		col := &collectEmitter{}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = in.Run(col)
		}()
		return in, col, done
	}
	inA, colA, doneA := recv()
	inB, colB, doneB := recv()

	s := NewSplitter(SplitterConfig{
		Group: "g", Epoch: 7, Legs: []string{inA.Addr(), inB.Addr()},
		Flush: record.PerRecordConfig(),
	})
	const n = 50
	for i := 0; i < n; i++ {
		r := record.NewData(record.SubtypeAudio)
		r.Seq = uint64(1000 + i) // pipeline-stamped Seq must be overwritten
		r.SetFloat64s([]float64{float64(i)})
		if err := s.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, 5*time.Second, "both legs drained", func() bool {
		return colA.len() == n && colB.len() == n
	})
	_ = s.Close()
	_ = inA.Close()
	_ = inB.Close()
	<-doneA
	<-doneB

	stream := record.ReplicaStreamID("g")
	for _, col := range []*collectEmitter{colA, colB} {
		for i, r := range col.snapshot() {
			epoch, seq, ok := record.ReplicaTag(r, stream)
			if !ok || epoch != 7 || seq != uint64(i) {
				t.Fatalf("leg record %d: tag ok=%v epoch=%d seq=%d", i, ok, epoch, seq)
			}
		}
	}
	if s.LegDrops() != 0 {
		t.Errorf("leg drops = %d, want 0 against live receivers", s.LegDrops())
	}
}

// TestSplitterDeadLegNeverStalls points one of three legs at a dead
// address. Consume must keep flowing (the dead leg is the one tolerated
// dropout of the copies-on-N−1-legs invariant), and because every record
// reaches at least two legs, the union of the two live legs must contain
// every record — the zero-loss property a single dead replica relies on.
func TestSplitterDeadLegNeverStalls(t *testing.T) {
	recv := func() (*pipeline.StreamIn, *collectEmitter, chan struct{}) {
		in, err := pipeline.NewStreamIn("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		col := &collectEmitter{}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = in.Run(col)
		}()
		return in, col, done
	}
	inA, colA, doneA := recv()
	inB, colB, doneB := recv()

	// Reserve an address with no listener behind it.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	s := NewSplitter(SplitterConfig{
		Group: "g", Legs: []string{inA.Addr(), inB.Addr(), deadAddr},
		LegQueue: 4, Flush: record.PerRecordConfig(),
	})
	stream := record.ReplicaStreamID("g")
	const n = 100
	for i := 0; i < n; i++ {
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s([]float64{float64(i)})
		if err := s.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	union := func() map[uint64]bool {
		seen := make(map[uint64]bool)
		for _, col := range []*collectEmitter{colA, colB} {
			for _, r := range col.snapshot() {
				if _, seq, ok := record.ReplicaTag(r, stream); ok {
					seen[seq] = true
				}
			}
		}
		return seen
	}
	waitCond(t, 5*time.Second, "live legs drained", func() bool { return len(union()) == n })
	for i := uint64(0); i < n; i++ {
		if !union()[i] {
			t.Fatalf("record %d reached no live leg", i)
		}
	}
	if s.LegDrops() == 0 {
		t.Error("expected drops toward the dead leg")
	}
	// Drop the dead leg and splice a fresh receiver in.
	inC, colC, doneC := recv()
	s.SetLegs([]string{inA.Addr(), inB.Addr(), inC.Addr()})
	if got := s.Legs(); len(got) != 3 {
		t.Fatalf("legs = %v, want 3", got)
	}
	r := record.NewData(record.SubtypeAudio)
	r.SetFloat64s([]float64{1})
	if err := s.Consume(r); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, "spliced leg receiving", func() bool { return colC.len() == 1 })
	_ = s.Close()
	_ = inA.Close()
	_ = inB.Close()
	_ = inC.Close()
	<-doneA
	<-doneB
	<-doneC
}

// TestSplitterMergerEndToEnd wires splitter -> 3 relay hops -> merger over
// real hosted pipelines and verifies exactly-once delivery while one leg
// is torn down mid-stream — the subsystem-level statement of the zero-loss
// property.
func TestSplitterMergerEndToEnd(t *testing.T) {
	m, err := NewMerger(MergerConfig{Group: "g", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectEmitter{}
	mergeDone := make(chan error, 1)
	go func() { mergeDone <- m.Run(sink) }()

	reg := pipeline.NewRegistry()
	reg.Register("relay", func() []pipeline.Operator { return []pipeline.Operator{pipeline.Relay{}} })
	node := pipeline.NewNode("n", reg)
	legs := make([]string, 3)
	for i := range legs {
		addr, err := node.Host(fmt.Sprintf("r%d", i), "relay", "127.0.0.1:0", m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		legs[i] = addr
	}
	s := NewSplitter(SplitterConfig{Group: "g", Epoch: 1, Legs: legs})

	const n = 400
	for i := 0; i < n; i++ {
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s([]float64{float64(i)})
		if err := s.Consume(r); err != nil {
			t.Fatal(err)
		}
		if i == n/2 {
			// Kill one replica hop mid-stream; its StreamIn dies with the
			// leg's records in flight.
			// Egress totals must not step back when a leg that already
			// flushed records leaves the set.
			waitCond(t, 5*time.Second, "every leg flushing", func() bool {
				for _, flushed := range s.LegRecords() {
					if flushed == 0 {
						return false
					}
				}
				return true
			})
			_ = node.Stop("r1")
			before := [3]uint64{s.RecordsOut(), s.BatchesOut(), s.BytesOut()}
			s.SetLegs([]string{legs[0], legs[2]})
			after := [3]uint64{s.RecordsOut(), s.BatchesOut(), s.BytesOut()}
			for j, what := range []string{"records", "batches", "bytes"} {
				if after[j] < before[j] {
					t.Fatalf("%s out stepped back across SetLegs: %d -> %d", what, before[j], after[j])
				}
			}
		}
	}
	waitCond(t, 10*time.Second, "all records through", func() bool { return sink.len() >= n })
	_ = s.Close()
	_ = node.StopAll()
	_ = m.Close()
	<-mergeDone

	stream := record.ReplicaStreamID("g")
	recs := sink.snapshot()
	if len(recs) != n {
		t.Fatalf("delivered %d records, want exactly %d (dups=%d skipped=%d)",
			len(recs), n, m.Dups(), m.Skipped())
	}
	for i, r := range recs {
		if _, seq, ok := record.ReplicaTag(r, stream); !ok || seq != uint64(i) {
			t.Fatalf("record %d: tag ok=%v seq=%d", i, ok, seq)
		}
	}
	if m.Skipped() != 0 {
		t.Errorf("skipped = %d, want 0: surviving legs carry everything", m.Skipped())
	}
	if m.CorruptBatches() != 0 {
		t.Errorf("corrupt batches = %d: a torn leg is not corruption", m.CorruptBatches())
	}
}
