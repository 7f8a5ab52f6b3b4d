package pipeline

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/record"
)

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
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

// startCollector runs a StreamIn feeding a seqCollector until the returned
// stop function is called.
func startCollector(t *testing.T) (*StreamIn, *seqCollector, func()) {
	t.Helper()
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	col := newSeqCollector()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := in.Run(col); err != nil {
			t.Errorf("streamin %s: %v", in.Addr(), err)
		}
	}()
	return in, col, func() { in.Close(); <-done }
}

func seqData(seq uint64) *record.Record {
	r := record.NewData(record.SubtypeAudio)
	r.Seq = seq
	r.SetFloat64s([]float64{float64(seq)})
	return r
}

// TestStreamOutBatchedDelivery checks the two delivery paths of a batching
// policy: a full batch flushes on count, and a partial batch is delivered
// by the background timer without further writes.
func TestStreamOutBatchedDelivery(t *testing.T) {
	in, col, stop := startCollector(t)
	defer stop()

	out := NewStreamOutBatched(in.Addr(), record.BatchConfig{
		MaxRecords: 4, MaxDelay: 5 * time.Millisecond,
	})
	defer out.Close()
	for i := 0; i < 4; i++ {
		if err := out.Consume(seqData(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "full batch at receiver", func() bool { return col.count() == 4 })
	if got := out.BatchesOut(); got != 1 {
		t.Errorf("BatchesOut = %d, want 1 for a full batch", got)
	}

	// A lone record must not wait for the batch to fill.
	if err := out.Consume(seqData(99)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "timer-flushed record", func() bool { return col.count() == 5 })
	if out.RecordsOut() != 5 {
		t.Errorf("RecordsOut = %d, want 5", out.RecordsOut())
	}
	if out.BytesOut() == 0 {
		t.Error("BytesOut = 0 after deliveries")
	}
}

// TestStreamOutRedirectDuringBatch is the redirect-during-batch contract:
// a Redirect racing a partially filled batch must deliver every record
// exactly once to old+new downstreams combined — the flushed prefix and
// the force-flushed partial batch to the old destination, everything after
// the switch to the new one — with scope repair covering the stream the
// redirect severed mid-scope.
func TestStreamOutRedirectDuringBatch(t *testing.T) {
	inA, colA, stopA := startCollector(t)
	inB, colB, stopB := startCollector(t)

	// No timer and no close-triggered flush: the test controls every flush
	// so the batch boundaries are deterministic.
	out := NewStreamOutBatched(inA.Addr(), record.BatchConfig{MaxRecords: 4})
	defer out.Close()

	open := record.NewOpenScope(record.ScopeClip, 0)
	if err := out.Consume(open); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 3; seq++ { // fills the batch: open + 3 data
		if err := out.Consume(seqData(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "first batch at old downstream", func() bool { return colA.count() == 3 })

	// Partially fill the next batch, then redirect. The pending records
	// were never written to A's connection; the forced flush hands them to
	// A before the switch, so A owes nothing and B starts clean.
	for seq := uint64(3); seq < 6; seq++ {
		if err := out.Consume(seqData(seq)); err != nil {
			t.Fatal(err)
		}
	}
	out.Redirect(inB.Addr())
	waitFor(t, 5*time.Second, "forced flush at old downstream", func() bool { return colA.count() == 6 })

	// Post-redirect traffic goes to B only.
	for seq := uint64(6); seq < 8; seq++ {
		if err := out.Consume(seqData(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "tail at new downstream", func() bool { return colB.count() == 2 })
	out.Close()
	stopA()
	stopB()

	// Exactly once across old+new combined: no sequence lost, none on both.
	colA.mu.Lock()
	colB.mu.Lock()
	defer colA.mu.Unlock()
	defer colB.mu.Unlock()
	for seq := uint64(0); seq < 8; seq++ {
		nA, nB := colA.seqs[seq], colB.seqs[seq]
		if nA+nB != 1 {
			t.Errorf("seq %d delivered %d times to old and %d to new, want exactly once combined", seq, nA, nB)
		}
		if wantOld := seq < 6; wantOld != (nA == 1) {
			t.Errorf("seq %d landed on the wrong side of the redirect (old=%d new=%d)", seq, nA, nB)
		}
	}
	// The redirect cut A's connection with the clip scope open; A must
	// have repaired it.
	if inA.BadCloses() != 1 {
		t.Errorf("old downstream synthesized %d scope repairs, want 1", inA.BadCloses())
	}
}

// TestStreamOutRedirectBeforeFirstFlush: a batch that never reached the
// old destination (no connection was ever dialled) rides entirely to the
// new one — still exactly once.
func TestStreamOutRedirectBeforeFirstFlush(t *testing.T) {
	inA, colA, stopA := startCollector(t)
	inB, colB, stopB := startCollector(t)

	out := NewStreamOutBatched(inA.Addr(), record.BatchConfig{MaxRecords: 16})
	defer out.Close()
	for seq := uint64(0); seq < 3; seq++ {
		if err := out.Consume(seqData(seq)); err != nil {
			t.Fatal(err)
		}
	}
	out.Redirect(inB.Addr())
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "batch at new downstream", func() bool { return colB.count() == 3 })
	out.Close()
	stopA()
	stopB()
	if colA.count() != 0 {
		t.Errorf("old downstream received %d records for a batch it was never owed", colA.count())
	}
	if inA.Connections() != 0 {
		t.Errorf("old downstream served %d connections, want 0", inA.Connections())
	}
}

// TestStreamOutCloseFlushesPending: a cleanly closed batched streamout
// delivers its tail instead of stranding it in the buffer.
func TestStreamOutCloseFlushesPending(t *testing.T) {
	in, col, stop := startCollector(t)
	defer stop()
	out := NewStreamOutBatched(in.Addr(), record.BatchConfig{MaxRecords: 64})
	for seq := uint64(0); seq < 3; seq++ {
		if err := out.Consume(seqData(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Establish the connection with one explicit flush, then buffer more.
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(3); seq < 5; seq++ {
		if err := out.Consume(seqData(seq)); err != nil {
			t.Fatal(err)
		}
	}
	out.Close()
	waitFor(t, 5*time.Second, "tail flushed on close", func() bool { return col.count() == 5 })
}

// TestStreamOutCloseDialsForFinalFlush: a batch that never triggered a
// flush (no timer in the policy, count below the bound) must still reach a
// reachable downstream when the sink closes — Close has no next
// destination to ride to, so it makes one bounded dial.
func TestStreamOutCloseDialsForFinalFlush(t *testing.T) {
	in, col, stop := startCollector(t)
	defer stop()
	out := NewStreamOutBatched(in.Addr(), record.BatchConfig{MaxRecords: 64})
	for seq := uint64(0); seq < 3; seq++ {
		if err := out.Consume(seqData(seq)); err != nil {
			t.Fatal(err)
		}
	}
	out.Close()
	waitFor(t, 5*time.Second, "never-flushed batch delivered on close", func() bool {
		return col.count() == 3
	})
}

// blockingEmitter holds every Emit until released, so tests can pile up a
// measurable queue backlog.
type blockingEmitter struct {
	release chan struct{}
	inner   *seqCollector
}

func (b *blockingEmitter) Emit(r *record.Record) error {
	<-b.release
	return b.inner.Emit(r)
}

// TestStreamInQueueDepthGauge drives a StreamIn whose downstream is
// stalled and checks the bounded queue fills and the gauge reports it,
// then drains completely once the downstream resumes.
func TestStreamInQueueDepthGauge(t *testing.T) {
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.QueueSize = 4
	in.MaxConns = 1
	be := &blockingEmitter{release: make(chan struct{}), inner: newSeqCollector()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := in.Run(be); err != nil {
			t.Errorf("streamin: %v", err)
		}
	}()

	out := NewStreamOut(in.Addr())
	defer out.Close()
	const n = 6 // 1 stuck in Emit + 4 queued + 1 blocked in the reader
	sendDone := make(chan error, 1)
	go func() {
		for seq := uint64(0); seq < n; seq++ {
			if err := out.Consume(seqData(seq)); err != nil {
				sendDone <- err
				return
			}
		}
		sendDone <- nil
	}()
	waitFor(t, 5*time.Second, "queue saturation", func() bool {
		d, c := in.QueueDepth()
		return c == 4 && d == 4
	})
	close(be.release)
	if err := <-sendDone; err != nil {
		t.Fatalf("send: %v", err)
	}
	waitFor(t, 5*time.Second, "queue drained to the emitter", func() bool {
		return be.inner.count() == n
	})
	out.Close()
	<-done
	if d, c := in.QueueDepth(); d != 0 || c != 0 {
		t.Errorf("gauge after Run = %d/%d, want 0/0", d, c)
	}
}

// TestStreamInRunQueueBounds feeds a default-sized queue from a batched
// upstream (runs of up to runCap records) into a stalled emitter: the
// record-counted depth must fill to within one run of the bound without
// ever passing it, drain to zero once the emitter resumes, and every
// record must carry its run's ingress stamp.
func TestStreamInRunQueueBounds(t *testing.T) {
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.QueueSize = DefaultQueueSize
	in.MaxConns = 1
	var unstamped atomic.Int64
	be := &blockingEmitter{release: make(chan struct{}), inner: newSeqCollector()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := in.Run(EmitterFunc(func(r *record.Record) error {
			if r.IngressNanos == 0 {
				unstamped.Add(1)
			}
			return be.Emit(r)
		}))
		if err != nil {
			t.Errorf("streamin: %v", err)
		}
	}()

	out := NewStreamOutBatched(in.Addr(), record.DefaultBatchConfig())
	defer out.Close()
	const n = 4 * DefaultQueueSize
	sendDone := make(chan error, 1)
	go func() {
		for seq := uint64(0); seq < n; seq++ {
			if err := out.Consume(seqData(seq)); err != nil {
				sendDone <- err
				return
			}
		}
		sendDone <- out.Flush()
	}()
	waitFor(t, 5*time.Second, "queue filled to within one run of its bound", func() bool {
		d, c := in.QueueDepth()
		if c != 0 && (c != in.QueueSize || d > c) { // 0/0 until Run installs the queue
			t.Fatalf("gauge %d/%d, want depth <= cap == QueueSize %d", d, c, in.QueueSize)
		}
		return c != 0 && d >= in.QueueSize-runCap
	})
	close(be.release)
	if err := <-sendDone; err != nil {
		t.Fatalf("send: %v", err)
	}
	waitFor(t, 5*time.Second, "queue drained to the emitter", func() bool {
		d, _ := in.QueueDepth()
		return be.inner.count() == n && d == 0
	})
	out.Close()
	<-done
	if d, c := in.QueueDepth(); d != 0 || c != 0 {
		t.Errorf("gauge after Run = %d/%d, want 0/0", d, c)
	}
	if p := in.QueuePeak(); p > in.QueueSize || p < in.QueueSize-runCap {
		t.Errorf("queue peak %d, want within [%d, %d]", p, in.QueueSize-runCap, in.QueueSize)
	}
	if u := unstamped.Load(); u != 0 {
		t.Errorf("%d records reached the emitter without an ingress stamp", u)
	}
}

// flakyListener fails the first N Accepts with a transient error.
type flakyListener struct {
	net.Listener
	mu       sync.Mutex
	failures int
	attempts int
}

func (f *flakyListener) Accept() (net.Conn, error) {
	f.mu.Lock()
	f.attempts++
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	f.mu.Unlock()
	if fail {
		return nil, errors.New("accept: resource temporarily unavailable")
	}
	return f.Listener.Accept()
}

// TestStreamInAcceptBackoffSurvivesTransientErrors injects transient
// Accept failures and checks the source backs off and keeps serving
// instead of tearing the pipeline down.
func TestStreamInAcceptBackoffSurvivesTransientErrors(t *testing.T) {
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: in.ln, failures: 3}
	in.ln = fl
	in.MaxConns = 1
	col := newSeqCollector()
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		if err := in.Run(col); err != nil {
			t.Errorf("streamin gave up on transient accept errors: %v", err)
		}
	}()

	out := NewStreamOut(in.Addr())
	defer out.Close()
	if err := out.Consume(seqData(1)); err != nil {
		t.Fatal(err)
	}
	out.Close()
	<-done
	if col.count() != 1 {
		t.Fatalf("record lost across transient accept errors: got %d", col.count())
	}
	// Three failures at 10/20/40ms backoff: the retries must actually have
	// waited rather than hot-looped.
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("served after %v, backoff apparently skipped", elapsed)
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.attempts < 4 {
		t.Errorf("listener saw %d accepts, want the 3 failures retried", fl.attempts)
	}
}
