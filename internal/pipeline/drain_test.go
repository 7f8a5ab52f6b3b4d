package pipeline

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
)

// TestStreamInPreservesSeq: records relayed through a hosted pipeline
// whose source is a streamin keep their upstream Seq/SourceID — the
// property replication tags ride on — while ordinary sources still get
// pipeline-stamped sequence numbers (covered by TestPipelineSeqStamping).
func TestStreamInPreservesSeq(t *testing.T) {
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []*record.Record
	sink := SinkFunc{SinkName: "collect", Fn: func(r *record.Record) error {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, r.CloneInto(new(record.Record)))
		return nil
	}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = New().SetSource(in).SetSink(sink).Run(context.Background())
	}()

	out := NewStreamOut(in.Addr())
	for i := 0; i < 3; i++ {
		r := record.NewData(record.SubtypeAudio)
		r.Seq = uint64(100 + i)
		r.SourceID = 42
		r.SetFloat64s([]float64{float64(i)})
		if err := out.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d records arrived", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = out.Close()
	_ = in.Close()
	<-done
	mu.Lock()
	defer mu.Unlock()
	for i, r := range got {
		if r.Seq != uint64(100+i) || r.SourceID != 42 {
			t.Errorf("record %d: seq=%d src=%d, want %d, 42 (upstream sequencing restamped)",
				i, r.Seq, r.SourceID, 100+i)
		}
	}
}

// drainCollector records data-record seqs and scope repairs arriving at
// a drain test destination.
type drainCollector struct {
	mu   sync.Mutex
	recs int
	bad  int
}

func (c *drainCollector) Emit(r *record.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs++
	if r.Kind == record.KindBadCloseScope {
		c.bad++
	}
	return nil
}

func (c *drainCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recs
}

func (c *drainCollector) badCloses() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bad
}

// TestRedirectAtBoundary drives a streamout through a boundary-deferred
// redirect: mid-scope records keep flowing to the old destination, the
// top-level close is the last record the old destination sees, and
// everything after flows to the new one — the zero-repair drain splice.
func TestRedirectAtBoundary(t *testing.T) {
	recv := func() (*StreamIn, *drainCollector, chan struct{}) {
		in, err := NewStreamIn("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		col := &drainCollector{}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = in.Run(col)
		}()
		return in, col, done
	}
	inOld, colOld, doneOld := recv()
	inNew, colNew, doneNew := recv()

	out := NewStreamOut(inOld.Addr())
	defer out.Close()
	send := func(r *record.Record, seq uint64) {
		t.Helper()
		r.Seq = seq
		if err := out.Consume(r); err != nil {
			t.Fatalf("consume %d: %v", seq, err)
		}
	}
	send(record.NewOpenScope(record.ScopeClip, 0), 0)
	data := func() *record.Record {
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s([]float64{1})
		return r
	}
	send(data(), 1)

	redirected := make(chan bool, 1)
	go func() { redirected <- out.RedirectAtBoundary(inNew.Addr(), 5*time.Second) }()
	// Mid-scope traffic must still reach the old destination while the
	// redirect waits for the boundary.
	time.Sleep(50 * time.Millisecond)
	send(data(), 2)
	send(record.NewCloseScope(record.ScopeClip, 0), 3) // the boundary
	select {
	case atBoundary := <-redirected:
		if !atBoundary {
			t.Fatal("redirect fell back instead of firing at the boundary")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RedirectAtBoundary never returned after the boundary")
	}
	send(data(), 4) // post-boundary: new destination

	deadline := time.Now().Add(5 * time.Second)
	for (colOld.count() < 4 || colNew.count() < 1) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	_ = out.Close()
	_ = inOld.Close()
	_ = inNew.Close()
	<-doneOld
	<-doneNew
	if colOld.count() != 4 {
		t.Errorf("old destination saw %d records, want 4 (through the boundary close)", colOld.count())
	}
	if colNew.count() != 1 {
		t.Errorf("new destination saw %d records, want 1 (post-boundary)", colNew.count())
	}
	// The old destination's stream ended at scope depth 0: no repairs.
	if colOld.badCloses() != 0 {
		t.Errorf("old destination synthesized %d repairs; boundary splice must end the stream cleanly", colOld.badCloses())
	}
}

// TestRedirectAtBoundaryFallsBack: with no boundary in the stream the
// deferred redirect must degrade to an immediate one after the wait.
func TestRedirectAtBoundaryFallsBack(t *testing.T) {
	inOld, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	colOld := newSeqCollector()
	doneOld := make(chan struct{})
	go func() {
		defer close(doneOld)
		_ = inOld.Run(colOld)
	}()
	inNew, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	colNew := newSeqCollector()
	doneNew := make(chan struct{})
	go func() {
		defer close(doneNew)
		_ = inNew.Run(colNew)
	}()

	out := NewStreamOut(inOld.Addr())
	defer out.Close()
	r := record.NewData(record.SubtypeAudio)
	r.SetFloat64s([]float64{1})
	if err := out.Consume(r); err != nil {
		t.Fatal(err)
	}
	if out.RedirectAtBoundary(inNew.Addr(), 50*time.Millisecond) {
		t.Fatal("boundary reported on a boundary-free stream")
	}
	r2 := record.NewData(record.SubtypeAudio)
	r2.Seq = 1
	r2.SetFloat64s([]float64{2})
	if err := out.Consume(r2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for colNew.count() < 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	_ = out.Close()
	_ = inOld.Close()
	_ = inNew.Close()
	<-doneOld
	<-doneNew
	if colNew.count() != 1 {
		t.Fatalf("record after fallback did not reach the new destination (%d)", colNew.count())
	}
}
