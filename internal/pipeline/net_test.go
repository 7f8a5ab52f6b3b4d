package pipeline

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
)

// emitCollector is a thread-safe Emitter that records everything.
type emitCollector struct {
	mu   sync.Mutex
	recs []*record.Record
}

func (c *emitCollector) Emit(r *record.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r)
	return nil
}

func (c *emitCollector) snapshot() []*record.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*record.Record(nil), c.recs...)
}

func scopedClipRecords(vals ...float64) []*record.Record {
	open := record.NewOpenScope(record.ScopeClip, 0)
	open.SetContext(map[string]string{record.CtxSampleRate: "24576"})
	recs := []*record.Record{open}
	for _, v := range vals {
		r := record.NewData(record.SubtypeAudio)
		r.Scope = 1
		r.ScopeType = record.ScopeClip
		r.SetFloat64s([]float64{v})
		recs = append(recs, r)
	}
	recs = append(recs, record.NewCloseScope(record.ScopeClip, 0))
	return recs
}

func TestStreamOutToStreamIn(t *testing.T) {
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.MaxConns = 1
	out := NewStreamOut(in.Addr())
	defer out.Close()

	var wg sync.WaitGroup
	col := &emitCollector{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := in.Run(col); err != nil {
			t.Errorf("streamin: %v", err)
		}
	}()

	sent := scopedClipRecords(1, 2, 3)
	for _, r := range sent {
		if err := out.Consume(r); err != nil {
			t.Fatalf("consume: %v", err)
		}
	}
	out.Close() // EOF to the reader
	wg.Wait()

	got := col.snapshot()
	if len(got) != len(sent) {
		t.Fatalf("received %d records, want %d", len(got), len(sent))
	}
	for i := range sent {
		if got[i].Kind != sent[i].Kind {
			t.Errorf("record %d kind = %s, want %s", i, got[i].Kind, sent[i].Kind)
		}
	}
	if in.Connections() != 1 {
		t.Errorf("Connections = %d", in.Connections())
	}
	if in.BadCloses() != 0 {
		t.Errorf("BadCloses = %d, want 0 for clean stream", in.BadCloses())
	}
}

func TestStreamInRepairsKilledUpstream(t *testing.T) {
	// Queue size 1 is smaller than the repair: each repair record must
	// travel as a run of its own.
	for _, queue := range []int{0, 1} {
		t.Run(fmt.Sprintf("queue %d", queue), func(t *testing.T) {
			in, err := NewStreamIn("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			in.MaxConns = 1
			in.QueueSize = queue
			col := &emitCollector{}
			done := make(chan struct{})
			go func() {
				defer close(done)
				if err := in.Run(col); err != nil {
					t.Errorf("streamin: %v", err)
				}
			}()

			// Upstream opens nested scopes, sends data, then dies without closing.
			conn, err := net.Dial("tcp", in.Addr())
			if err != nil {
				t.Fatal(err)
			}
			w := record.NewWriter(conn)
			sess := record.NewOpenScope(record.ScopeSession, 0)
			mustWrite(t, w, sess)
			clip := record.NewOpenScope(record.ScopeClip, 1)
			mustWrite(t, w, clip)
			data := record.NewData(record.SubtypeAudio)
			data.SetFloat64s([]float64{42})
			mustWrite(t, w, data)
			conn.Close() // abrupt death mid-scope
			<-done

			got := col.snapshot()
			if len(got) != 5 {
				t.Fatalf("got %d records, want 5 (2 opens + data + 2 bad closes)", len(got))
			}
			if got[3].Kind != record.KindBadCloseScope || got[3].ScopeType != record.ScopeClip || got[3].Scope != 1 {
				t.Errorf("first repair record = %s", got[3])
			}
			if got[4].Kind != record.KindBadCloseScope || got[4].ScopeType != record.ScopeSession || got[4].Scope != 0 {
				t.Errorf("second repair record = %s", got[4])
			}
			if in.BadCloses() != 2 {
				t.Errorf("BadCloses = %d, want 2", in.BadCloses())
			}
			// The repaired stream must be structurally valid end to end.
			tr := record.NewTracker()
			for i, r := range got {
				if err := tr.Observe(r); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
			}
			if tr.Depth() != 0 {
				t.Errorf("depth after repair = %d", tr.Depth())
			}
		})
	}
}

func TestStreamInServesSequentialConnections(t *testing.T) {
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.MaxConns = 3
	col := &emitCollector{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := in.Run(col); err != nil {
			t.Errorf("streamin: %v", err)
		}
	}()

	for i := 0; i < 3; i++ {
		out := NewStreamOut(in.Addr())
		for _, r := range scopedClipRecords(float64(i)) {
			if err := out.Consume(r); err != nil {
				t.Fatalf("conn %d: %v", i, err)
			}
		}
		out.Close()
		// Sequential connections arrive in order; give the reader a beat
		// to finish draining before the next dial so ordering is stable.
		time.Sleep(10 * time.Millisecond)
	}
	<-done
	got := col.snapshot()
	if len(got) != 9 {
		t.Fatalf("got %d records, want 9", len(got))
	}
	if in.Connections() != 3 {
		t.Errorf("Connections = %d", in.Connections())
	}
}

func TestStreamOutRedialsAfterDrop(t *testing.T) {
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.MaxConns = 2
	col := &emitCollector{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := in.Run(col); err != nil {
			t.Errorf("streamin: %v", err)
		}
	}()

	out := NewStreamOut(in.Addr())
	defer out.Close()
	r := record.NewData(0)
	r.SetFloat64s([]float64{1})
	if err := out.Consume(r); err != nil {
		t.Fatal(err)
	}
	// Force a reconnect by dropping the sender's connection.
	out.mu.Lock()
	out.dropConnLocked()
	out.mu.Unlock()
	r2 := record.NewData(0)
	r2.SetFloat64s([]float64{2})
	if err := out.Consume(r2); err != nil {
		t.Fatal(err)
	}
	out.Close()
	<-done
	if got := col.snapshot(); len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
}

func TestStreamOutStoppedAfterClose(t *testing.T) {
	out := NewStreamOut("127.0.0.1:1") // nothing listens here
	out.Close()
	r := record.NewData(0)
	if err := out.Consume(r); err != ErrStopped {
		t.Errorf("Consume after Close = %v, want ErrStopped", err)
	}
}

func TestStreamInIdleTimeout(t *testing.T) {
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.IdleTimeout = 50 * time.Millisecond
	start := time.Now()
	if err := in.Run(&emitCollector{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("idle timeout took %v", elapsed)
	}
}

func TestNetworkedPipelineEndToEnd(t *testing.T) {
	// Full hop: in-process source -> streamout ==tcp==> streamin ->
	// segment -> sink.
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.MaxConns = 1

	sink := &collectSink{}
	downstream := New().SetSource(in).AppendOps("math", doubler{}).SetSink(sink)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := downstream.Run(context.Background()); err != nil {
			t.Errorf("downstream: %v", err)
		}
	}()

	out := NewStreamOut(in.Addr())
	upstream := New().SetSource(floatSource("src", 1, 2, 3)).SetSink(out)
	if err := upstream.Run(context.Background()); err != nil {
		t.Fatalf("upstream: %v", err)
	}
	out.Close()
	wg.Wait()

	got := sink.values(t)
	want := []float64{2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func mustWrite(t *testing.T, w *record.Writer, r *record.Record) {
	t.Helper()
	if err := w.Write(r); err != nil {
		t.Fatalf("write: %v", err)
	}
}

// seqCollector records the Seq of every data record it sees.
type seqCollector struct {
	mu   sync.Mutex
	seqs map[uint64]int
}

func newSeqCollector() *seqCollector { return &seqCollector{seqs: make(map[uint64]int)} }

func (c *seqCollector) Emit(r *record.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.Kind == record.KindData {
		c.seqs[r.Seq]++
	}
	return nil
}

func (c *seqCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seqs)
}

// TestStreamOutRedirectUnderConcurrentConsume bounces a streamout between
// two receivers while a writer streams records as fast as it can. Every
// record must arrive somewhere (delivery may duplicate a record the
// redirect cut off mid-write, but must never lose one), redirects must
// never block behind a stalled write, and both receivers must see
// traffic.
func TestStreamOutRedirectUnderConcurrentConsume(t *testing.T) {
	servers := make([]*StreamIn, 2)
	collectors := make([]*seqCollector, 2)
	var wg sync.WaitGroup
	for i := range servers {
		in, err := NewStreamIn("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = in
		collectors[i] = newSeqCollector()
		wg.Add(1)
		go func(in *StreamIn, col *seqCollector) {
			defer wg.Done()
			if err := in.Run(col); err != nil {
				t.Errorf("streamin: %v", err)
			}
		}(in, collectors[i])
	}

	out := NewStreamOut(servers[0].Addr())
	defer out.Close()

	// The writer streams until the flip sequence below finishes, then
	// reports how many records it sent.
	stopWriting := make(chan struct{})
	sent := make(chan int, 1)
	writerErr := make(chan error, 1)
	go func() {
		n := 0
		for {
			select {
			case <-stopWriting:
				sent <- n
				return
			default:
			}
			r := record.NewData(record.SubtypeAudio)
			r.Seq = uint64(n)
			r.SetFloat64s([]float64{float64(n)})
			if err := out.Consume(r); err != nil {
				writerErr <- err
				return
			}
			n++
		}
	}()

	// Bounce the destination while records flow. Each redirect must land
	// promptly even when Consume holds the write path, and each flip
	// waits until traffic demonstrably traverses the new target.
	deadline := time.Now().Add(20 * time.Second)
	for flips := 0; flips < 8; flips++ {
		newTarget := (flips + 1) % 2
		before := collectors[newTarget].count()
		start := time.Now()
		out.Redirect(servers[newTarget].Addr())
		if blockage := time.Since(start); blockage > 2*time.Second {
			t.Fatalf("redirect %d blocked for %v behind an in-flight write", flips, blockage)
		}
		for collectors[newTarget].count() <= before {
			if time.Now().After(deadline) {
				t.Fatalf("flip %d: no records reached server %d after redirect", flips, newTarget)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(stopWriting)
	var total int
	select {
	case err := <-writerErr:
		t.Fatalf("writer: %v", err)
	case total = <-sent:
	}

	// Drain: every sequence number must be on one server or the other.
	distinct := func() int {
		seen := make(map[uint64]bool)
		for _, c := range collectors {
			c.mu.Lock()
			for s := range c.seqs {
				seen[s] = true
			}
			c.mu.Unlock()
		}
		return len(seen)
	}
	for distinct() < total && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := distinct(); got != total {
		t.Fatalf("lost records across redirects: %d distinct of %d sent", got, total)
	}
	for i, c := range collectors {
		if c.count() == 0 {
			t.Errorf("server %d saw no records despite redirects through it", i)
		}
	}
	for _, in := range servers {
		in.Close()
	}
	wg.Wait()
}

// TestStreamOutRedirectUnblocksDeadDial points a streamout at a dead
// address, starts a write (which spins redialling), then redirects to a
// live receiver: the blocked write must follow the redirect and deliver.
func TestStreamOutRedirectUnblocksDeadDial(t *testing.T) {
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.MaxConns = 1
	col := newSeqCollector()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := in.Run(col); err != nil {
			t.Errorf("streamin: %v", err)
		}
	}()

	// Reserve an address with no listener: dials fail until redirect.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	out := NewStreamOut(deadAddr)
	defer out.Close()
	wrote := make(chan error, 1)
	go func() {
		r := record.NewData(record.SubtypeAudio)
		r.Seq = 7
		r.SetFloat64s([]float64{7})
		wrote <- out.Consume(r)
	}()
	// Give the writer time to enter its redial loop, then heal it.
	time.Sleep(50 * time.Millisecond)
	out.Redirect(in.Addr())
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatalf("consume after redirect: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write never completed after redirect away from dead address")
	}
	out.Close()
	<-done
	if col.count() != 1 {
		t.Fatalf("record not delivered after redirect: %d", col.count())
	}
}

// TestStreamOutRedirectSameAddrKeepsConn ensures re-announcing the
// current destination does not sever a healthy connection: a control
// plane may re-send an unchanged entry address after a watch reconnect.
func TestStreamOutRedirectSameAddrKeepsConn(t *testing.T) {
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	col := newSeqCollector()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := in.Run(col); err != nil {
			t.Errorf("streamin: %v", err)
		}
	}()

	out := NewStreamOut(in.Addr())
	defer out.Close()
	send := func(seq uint64) {
		t.Helper()
		r := record.NewData(record.SubtypeAudio)
		r.Seq = seq
		r.SetFloat64s([]float64{1})
		if err := out.Consume(r); err != nil {
			t.Fatalf("consume: %v", err)
		}
	}
	send(0)
	out.Redirect(in.Addr()) // no-op: same destination
	send(1)
	out.Close()
	deadline := time.Now().Add(5 * time.Second)
	for col.count() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	in.Close()
	<-done
	if got := in.Connections(); got != 1 {
		t.Errorf("Connections = %d, want 1: same-address redirect must not reconnect", got)
	}
	if col.count() != 2 {
		t.Errorf("records = %d, want 2", col.count())
	}
}

// TestNodeStopWithDeadDownstream stops a hosted segment whose streamout
// is wedged redialling an unreachable downstream; Stop must close the
// sink side and return instead of hanging on the pipeline unwind.
func TestNodeStopWithDeadDownstream(t *testing.T) {
	// Reserve an address with no listener.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	reg := NewRegistry()
	reg.Register("ident", func() []Operator { return nil })
	node := NewNode("n", reg)
	addr, err := node.Host("seg", "ident", "127.0.0.1:0", deadAddr)
	if err != nil {
		t.Fatal(err)
	}
	// Push a record in so the segment's sink goroutine enters the
	// redial loop against the dead downstream.
	feeder := NewStreamOut(addr)
	r := record.NewData(record.SubtypeAudio)
	r.SetFloat64s([]float64{1})
	if err := feeder.Consume(r); err != nil {
		t.Fatal(err)
	}
	defer feeder.Close()
	time.Sleep(100 * time.Millisecond) // let the record reach the wedged sink

	stopped := make(chan error, 1)
	go func() { stopped <- node.Stop("seg") }()
	select {
	case err := <-stopped:
		if err != nil && !errors.Is(err, ErrStopped) {
			t.Fatalf("stop: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Node.Stop hung on a segment with an unreachable downstream")
	}
}

// TestStreamInCorruptionCounted streams a corrupted v2 batch between two
// good ones straight into a StreamIn: the bad batch is dropped whole, the
// good batches deliver, and the corruption surfaces in CorruptBatches()
// for the segment-stats heartbeat.
func TestStreamInCorruptionCounted(t *testing.T) {
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	col := &emitCollector{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := in.Run(col); err != nil {
			t.Errorf("streamin: %v", err)
		}
	}()

	batch := func(base int) []*record.Record {
		recs := make([]*record.Record, 3)
		for i := range recs {
			r := record.NewData(record.SubtypeAudio)
			r.Seq = uint64(base + i)
			r.SetFloat64s([]float64{float64(base + i)})
			recs[i] = r
		}
		return recs
	}
	var wire []byte
	wire = record.AppendBatchWire(wire, batch(0)...)
	mark := len(wire)
	wire = record.AppendBatchWire(wire, batch(10)...)
	wire = record.AppendBatchWire(wire, batch(20)...)
	wire[mark+20] ^= 0x01 // inside the middle batch's body

	conn, err := net.Dial("tcp", in.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(col.snapshot()) < 6 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	_ = in.Close()
	wg.Wait()

	got := col.snapshot()
	if len(got) != 6 {
		t.Fatalf("delivered %d records, want 6 (middle batch dropped whole)", len(got))
	}
	for i, r := range got {
		want := uint64(i)
		if i >= 3 {
			want = uint64(20 + i - 3)
		}
		if r.Seq != want {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, want)
		}
	}
	if in.CorruptBatches() != 1 {
		t.Errorf("CorruptBatches = %d, want 1", in.CorruptBatches())
	}
}
