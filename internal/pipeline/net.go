package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/record"
)

// DefaultQueueSize is the emit-queue capacity, in records across the
// queued runs, Node configures for hosted segments' streamins. It decouples
// the network reader from a slow operator chain and makes the backlog
// observable as a queue depth.
const DefaultQueueSize = 256

// runCap caps a run, the unit StreamIn hands downstream: the records of
// one decoded wire batch, cut into runs of at most this many.
const runCap = 64

var (
	_ RecycledSource = (*StreamIn)(nil)
	_ RunEnder       = (*StreamIn)(nil)
	_ runConsumer    = (*StreamOut)(nil)
)

// StreamOut is a Sink that writes records to a downstream host over TCP,
// the streamout operator of the paper. Records are framed through a
// record.BatchWriter, by Consume one at a time or by ConsumeRun a run at
// a time (a hosted unit hands its sink each run in one call, taking the
// lock and checking for stop once per run): with the default per-record
// policy every record is flushed immediately; a batching policy
// (NewStreamOutBatched) coalesces records into one network write per
// batch, cutting syscall overhead on the hot path. A batch is delivered when it fills, when its producer's
// input runs dry (Flush: a hosted unit's run-end hook, a fan-out leg whose
// queue emptied), or — for producers that only Consume — when the
// MaxDelay timer finds it stale.
//
// The sink dials lazily and redials with backoff when the connection drops
// or the downstream moves, so a pipeline survives dynamic recomposition of
// its consumer. Redirect never waits on an in-flight Consume: a write
// stuck redialling a dead host observes the new address immediately, which
// is what lets a control plane splice a re-placed segment back into a live
// stream. Before a redirect or close severs the connection, the pending
// batch is force-flushed (best effort, bounded) so at most one bounded
// batch is in flight across a failover; a batch the old downstream never
// acknowledged is replayed to the new one, with scope repair downstream
// covering any duplicated tail.
type StreamOut struct {
	// writeMu serializes the flush paths: ConsumeRun, Flush, the background
	// timer flusher, and the best-effort forced flush in Redirect/Close (which
	// only TryLock it, so they stay responsive while a write retries
	// against a dead downstream). The batch writer is guarded by writeMu.
	writeMu sync.Mutex
	bw      *record.BatchWriter

	mu         sync.Mutex // guards the fields below
	addr       string
	gen        uint64 // bumped on every Redirect
	conn       net.Conn
	redirected chan struct{} // closed on Redirect to wake backoff waits
	// boundaryTarget is a redirect deferred to the next top-level scope
	// boundary (planned drain); boundaryCh is closed when it is performed
	// or superseded so RedirectAtBoundary waiters wake.
	boundaryTarget string
	boundaryCh     chan struct{}

	ctx    context.Context
	cancel context.CancelFunc

	// timerMu guards the armed flag of the on-demand delay-flush timer.
	// It nests inside writeMu and is never held across a writeMu acquire.
	// The timer itself is created once and re-armed with Reset so
	// steady-state batching schedules no per-batch timer allocations.
	timerMu    sync.Mutex
	timer      *time.Timer
	timerArmed atomic.Bool // read lock-free on the Consume fast path
	// maxDelay mirrors the policy's MaxDelay, fixed at construction.
	maxDelay time.Duration
}

// Redial backoff bounds, and the bound on the best-effort flush in
// Redirect/Close.
const (
	minRedialBackoff  = 10 * time.Millisecond
	maxRedialBackoff  = 2 * time.Second
	forceFlushTimeout = 250 * time.Millisecond
)

// NewStreamOut returns a streamout sink targeting addr ("host:port") with
// the per-record flush policy: every Consume is written through
// immediately, the pre-batching behavior.
func NewStreamOut(addr string) *StreamOut {
	return NewStreamOutBatched(addr, record.PerRecordConfig())
}

// NewStreamOutBatched returns a streamout sink targeting addr with the
// given flush policy. Use record.DefaultBatchConfig() for the standard
// batched hot path.
func NewStreamOutBatched(addr string, policy record.BatchConfig) *StreamOut {
	ctx, cancel := context.WithCancel(context.Background())
	bw := record.NewBatchWriter(nil, policy)
	return &StreamOut{
		bw:         bw,
		maxDelay:   bw.Config().MaxDelay,
		addr:       addr,
		redirected: make(chan struct{}),
		ctx:        ctx,
		cancel:     cancel,
	}
}

// Name implements Sink.
func (s *StreamOut) Name() string { return "streamout(" + s.Target() + ")" }

// RecordsOut returns the number of records flushed to the network.
func (s *StreamOut) RecordsOut() uint64 { return s.bw.Count() }

// BatchesOut returns the number of batch writes issued.
func (s *StreamOut) BatchesOut() uint64 { return s.bw.Batches() }

// BytesOut returns the total encoded bytes written.
func (s *StreamOut) BytesOut() uint64 { return s.bw.BytesWritten() }

// Target returns the downstream address the streamout currently forwards
// to — the last Redirect target, or the constructor address. A control
// plane reads it to learn what a detached instance was last told, so a
// restarted coordinator can reconcile instead of re-placing.
func (s *StreamOut) Target() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Redirect atomically switches the destination address; the next write
// dials the new target. This is the mechanism pipeline recomposition uses
// to splice a moved segment back into the stream. It returns without
// waiting for in-flight writes: a Consume blocked redialling the old
// address wakes and retries against the new one. When no write is in
// flight, the pending batch is force-flushed to the old downstream (one
// bounded attempt) before the switch, so a clean redirect hands off with
// nothing owed to the old destination; if the flush fails — or a write is
// mid-flight — the batch is replayed to the new address instead.
// Redirecting to the current address is a no-op, so a control plane
// re-announcing an unchanged entry point cannot sever a healthy connection
// mid-stream.
func (s *StreamOut) Redirect(addr string) {
	s.mu.Lock()
	same := addr == s.addr
	s.mu.Unlock()
	if same {
		return
	}
	// Forced flush, best effort: only when no writer holds the flush path
	// (TryLock keeps Redirect non-blocking under a stalled Consume).
	// Holding writeMu across the address swap below also stops a racing
	// Consume from starting a fresh batch toward the old destination.
	locked := s.writeMu.TryLock()
	if locked {
		defer s.writeMu.Unlock()
		s.forceFlushLocked(false)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if addr == s.addr {
		return
	}
	s.switchAddrLocked(addr)
	// An immediate redirect supersedes any pending boundary-deferred one:
	// a failover must not be re-overridden by a stale drain target.
	s.clearBoundaryLocked()
}

// switchAddrLocked swaps the destination address: the connection drops,
// the generation advances, and backoff waiters wake to retry against the
// new target. Caller holds mu and has checked addr differs.
func (s *StreamOut) switchAddrLocked(addr string) {
	s.addr = addr
	s.gen++
	s.dropConnLocked()
	close(s.redirected)
	s.redirected = make(chan struct{})
}

// RedirectAtBoundary registers a redirect that is performed when the next
// top-level scope close is framed — the drain primitive:
// the old destination receives a structurally complete stream (its last
// record closes the outermost scope), so the hop can be severed without
// any scope repair downstream. The call blocks until the boundary
// redirect happens or wait elapses; on timeout it falls back to an
// immediate Redirect so a drain cannot stall forever on a boundary-free
// stream. It reports whether the switch happened at a boundary.
func (s *StreamOut) RedirectAtBoundary(addr string, wait time.Duration) bool {
	s.mu.Lock()
	if addr == s.addr {
		s.clearBoundaryLocked()
		s.mu.Unlock()
		return true
	}
	s.boundaryTarget = addr
	if s.boundaryCh == nil {
		s.boundaryCh = make(chan struct{})
	}
	ch := s.boundaryCh
	s.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ch:
		// Performed — or superseded by an immediate Redirect; either way
		// report whether we ended up at the requested address.
		s.mu.Lock()
		done := s.addr == addr
		s.mu.Unlock()
		return done
	case <-s.ctx.Done():
		return false
	case <-timer.C:
	}
	s.mu.Lock()
	stale := s.boundaryTarget != addr
	s.mu.Unlock()
	if stale {
		return false
	}
	s.Redirect(addr)
	return false
}

// maybeBoundaryRedirect performs a pending boundary-deferred redirect if r
// closes the outermost scope. The pending batch (which ends with r) is
// force-flushed to the old destination first so nothing is owed across
// the switch. Caller holds writeMu.
func (s *StreamOut) maybeBoundaryRedirect(r *record.Record) {
	if !r.Kind.IsClose() || r.Scope != 0 {
		return
	}
	s.mu.Lock()
	target := s.boundaryTarget
	s.mu.Unlock()
	if target == "" {
		return
	}
	// One bounded delivery attempt (dialling if needed: a drain hands off
	// to a live destination, unlike a failover). On failure the batch
	// stays pending and rides to the new address.
	s.forceFlushLocked(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.boundaryTarget != target {
		return
	}
	if target != s.addr {
		s.switchAddrLocked(target)
	}
	s.clearBoundaryLocked()
}

// clearBoundaryLocked drops any pending boundary redirect and wakes its
// waiters. Caller holds mu.
func (s *StreamOut) clearBoundaryLocked() {
	s.boundaryTarget = ""
	if s.boundaryCh != nil {
		close(s.boundaryCh)
		s.boundaryCh = nil
	}
}

// forceFlushLocked makes one deadline-bounded attempt to deliver the
// pending batch over the established connection. With dial false (the
// Redirect path) it never dials: a batch with no connection yet owes
// nothing to the old destination and simply rides to the new one. With
// dial true (the Close path, where there is no next destination to ride
// to) it makes one bounded dial so a cleanly closed stream does not
// strand its tail. Caller holds writeMu.
func (s *StreamOut) forceFlushLocked(dial bool) {
	if s.bw.Pending() == 0 {
		return
	}
	s.mu.Lock()
	conn, addr := s.conn, s.addr
	s.mu.Unlock()
	if conn == nil {
		if !dial {
			return
		}
		nc, err := net.DialTimeout("tcp", addr, forceFlushTimeout)
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.conn == nil {
			s.conn = nc
		}
		s.mu.Unlock()
		conn = nc
	}
	_ = conn.SetWriteDeadline(time.Now().Add(forceFlushTimeout))
	s.bw.SetOutput(conn)
	if err := s.bw.Flush(); err != nil {
		// The batch stays pending and will be replayed to the next
		// destination; the connection is in an unknown state, drop it.
		s.mu.Lock()
		if s.conn == conn {
			s.dropConnLocked()
		}
		s.mu.Unlock()
		return
	}
	_ = conn.SetWriteDeadline(time.Time{})
}

// Consume implements Sink: it is ConsumeRun of one record.
func (s *StreamOut) Consume(r *record.Record) error {
	one := [1]*record.Record{r}
	return s.ConsumeRun(one[:])
}

// ConsumeRun frames a run of records into the pending batch under one
// lock and one stop check, flushing per policy, redialling as needed.
// Each record is framed as by its own Consume: a count, size or boundary
// trigger flushes at the record that fires it, and a top-level close
// performs a pending boundary redirect. It returns at the first error,
// leaving the rest of the run unframed. Nothing of the run is retained,
// so the caller keeps ownership of every record. With a batching policy
// most calls return without any I/O.
func (s *StreamOut) ConsumeRun(run []*record.Record) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	select {
	case <-s.ctx.Done():
		return ErrStopped
	default:
	}
	for _, r := range run {
		if err := s.bw.Add(r); err != nil {
			return err
		}
		var err error
		if s.bw.ShouldFlush() {
			if err = s.flushLocked(); err != nil {
				// Returning with the batch pending: splice any by-reference
				// payloads into the buffer while the caller still owns them.
				s.bw.MaterializePending()
			}
		}
		s.maybeBoundaryRedirect(r)
		if err != nil {
			return err
		}
	}
	if s.bw.Pending() > 0 && s.maxDelay > 0 && !s.timerArmed.Load() {
		s.armFlushTimer(s.maxDelay)
	}
	return nil
}

// Flush delivers any pending batch now, retrying until it lands or the
// sink closes. Producers call it when their input runs dry, and to bound
// what is in flight before a checkpoint.
func (s *StreamOut) Flush() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.ctx.Err() != nil {
		return ErrStopped
	}
	return s.flushLocked()
}

// armFlushTimer schedules a delayed flush so a batch whose oldest record
// exceeds MaxDelay is delivered even if no further Consume arrives. The
// timer is armed on demand — only while a batch is pending — so an idle
// streamout costs no wakeups.
func (s *StreamOut) armFlushTimer(d time.Duration) {
	s.timerMu.Lock()
	defer s.timerMu.Unlock()
	if s.timerArmed.Load() || s.ctx.Err() != nil {
		return
	}
	s.timerArmed.Store(true)
	if s.timer == nil {
		s.timer = time.AfterFunc(d, s.timedFlush)
	} else {
		s.timer.Reset(d)
	}
}

// timedFlush runs when the delay timer fires: if the pending batch is
// stale it is delivered; a younger batch (the timer outlived the batch it
// was armed for) re-arms for the remainder. It waits out any Consume or
// flush holding writeMu, so a flush stalled against a dead downstream
// parks this one goroutine rather than spinning the timer.
func (s *StreamOut) timedFlush() {
	s.timerMu.Lock()
	s.timerArmed.Store(false)
	s.timerMu.Unlock()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.ctx.Err() != nil || s.bw.Pending() == 0 {
		return
	}
	if age := s.bw.Age(); age < s.maxDelay {
		s.armFlushTimer(s.maxDelay - age)
		return
	}
	_ = s.flushLocked()
}

// flushLocked delivers the pending batch, dialling and redialling with
// backoff until the write lands, the target moves (retry against the new
// address), or the sink closes. Caller holds writeMu.
func (s *StreamOut) flushLocked() error {
	if s.bw.Pending() == 0 {
		return nil
	}
	backoff := minRedialBackoff
	for {
		if s.ctx.Err() != nil {
			return ErrStopped
		}
		s.mu.Lock()
		addr, gen, conn, redirected := s.addr, s.gen, s.conn, s.redirected
		s.mu.Unlock()
		if conn == nil {
			nc, err := (&net.Dialer{Timeout: time.Second}).DialContext(s.ctx, "tcp", addr)
			if err != nil {
				if s.ctx.Err() != nil {
					return ErrStopped
				}
				select {
				case <-s.ctx.Done():
					return ErrStopped
				case <-redirected:
					// Target moved while we were backing off: retry the
					// new address immediately.
					backoff = minRedialBackoff
				case <-time.After(backoff):
					if backoff *= 2; backoff > maxRedialBackoff {
						backoff = maxRedialBackoff
					}
				}
				continue
			}
			s.mu.Lock()
			if s.gen != gen || s.conn != nil {
				// Redirected while dialing: the connection targets the old
				// address, so discard it and start over.
				s.mu.Unlock()
				_ = nc.Close()
				continue
			}
			s.conn = nc
			s.mu.Unlock()
			continue
		}
		s.bw.SetOutput(conn)
		if err := s.bw.Flush(); err != nil {
			// Connection broke mid-write (or Redirect closed it): the batch
			// stays pending; drop the conn and retry on a fresh dial. The
			// reader side repairs scope damage from any partial delivery.
			s.mu.Lock()
			if s.conn == conn {
				s.dropConnLocked()
			}
			s.mu.Unlock()
			continue
		}
		return nil
	}
}

// Close terminates the sink and its connection, force-flushing the pending
// batch (best effort, bounded) so a cleanly closed stream does not strand
// its tail in the buffer.
func (s *StreamOut) Close() error {
	if s.writeMu.TryLock() {
		s.forceFlushLocked(true)
		s.writeMu.Unlock()
	}
	s.cancel()
	s.timerMu.Lock()
	if s.timer != nil {
		s.timer.Stop()
	}
	s.timerMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropConnLocked()
	return nil
}

func (s *StreamOut) dropConnLocked() {
	if s.conn != nil {
		_ = s.conn.Close()
		s.conn = nil
	}
}

// StreamIn is a Source that accepts records from upstream hosts over TCP,
// the streamin operator of the paper. It listens on a local address and
// serves one upstream connection at a time; when a connection ends with
// scopes still open — the upstream segment died or was moved mid-clip —
// StreamIn synthesizes BadCloseScope records so downstream operators can
// resynchronize, then waits for the next connection.
//
// Records travel downstream in runs: the records of one decoded wire
// batch, at most runCap of them, stamped with one ingress time. Every
// run ends with the RunEnder hook, which times the run for the latency
// tracer; a run after which the input has run dry also has the hosting
// unit's streamout deliver at once. With QueueSize > 0 the runs pass
// through a bounded emit queue that decouples the network reader from
// the downstream chain; QueueDepth exposes the backlog as the saturation
// gauge backpressure-aware placement feeds on. A pooled streamin's records
// are owned by their run: the hosting pipeline hands them back (Recycle)
// into the run's walked slots, the run's buffer returns to the reader
// with them, and the reader decodes the next run into them, so a hosted
// hop turns its records over without the record pool.
// Transient Accept errors (file-descriptor pressure, aborted handshakes)
// are retried with a short backoff instead of tearing the pipeline down.
type StreamIn struct {
	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc

	conns   atomic.Uint64 // accepted connections
	bad     atomic.Uint64 // BadCloseScope records synthesized
	qcap    atomic.Int64  // QueueSize while Run runs a queue, else 0
	depth   atomic.Int64  // records across the queued runs
	peak    atomic.Int64  // high-water mark of depth
	corrupt atomic.Uint64 // corrupt v2 batches dropped by the decoder

	runLen int                   // run length cap, set by Run
	free   chan []*record.Record // recycled run buffers, made by Run
	runEnd func(dry bool) error  // see SetRunEnd; nil when run ends need nothing

	// The run being walked, how many of its records have been emitted,
	// and how many handed-back records fill its first slots (see
	// Recycle). Only the walking goroutine touches them.
	cur          []*record.Record
	walked, back int
	// spare holds the records recycled run buffers brought back, which
	// the reader decodes into; only the reader goroutine touches it.
	spare []*record.Record

	// MaxConns, when positive, stops the source cleanly after that many
	// upstream connections have been served (used by finite pipelines and
	// tests; 0 means serve until Close).
	MaxConns int

	// IdleTimeout, when positive, stops the source if no new upstream
	// connection arrives within the window (protects finite pipelines
	// from waiting forever on a dead upstream).
	IdleTimeout time.Duration

	// QueueSize, when positive, bounds the emit queue between the network
	// reader and the downstream emitter, counted in records across the
	// queued runs: the reader blocks while the next run would overflow it.
	// 0 emits directly (no queue). Set before Run.
	QueueSize int

	// Pooled, when true, decodes records into recycled storage — the
	// records a hosting pipeline hands back (Recycle), else the record
	// pool — and marks the source as recycling, making the steady-state
	// receive path allocation-free. Enable only when every downstream
	// consumer honors the ownership contract in record/pool.go
	// (Node-hosted chains do); off by default so callers that retain raw
	// records keep working. Set before Run.
	Pooled bool
}

// NewStreamIn returns a streamin source listening on addr ("host:port";
// use ":0" for an ephemeral port, then Addr to discover it).
func NewStreamIn(addr string) (*StreamIn, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("streamin: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &StreamIn{ln: ln, ctx: ctx, cancel: cancel}, nil
}

// Name implements Source.
func (s *StreamIn) Name() string { return "streamin(" + s.Addr() + ")" }

// PreservesSeq implements SeqPreserver: records arriving over the wire
// already carry their producer's sequencing (including replication tags),
// which must survive the hop rather than being restamped.
func (s *StreamIn) PreservesSeq() bool { return true }

// RecyclesRecords implements RecycledSource: a pooled streamin takes its
// records back once the hosting pipeline's sink has consumed them.
func (s *StreamIn) RecyclesRecords() bool { return s.Pooled }

// Recycle implements RecycledSource. A pooled streamin keeps a record
// handed back while it walks a run in the first of the run's walked slots
// not yet refilled, for the reader to decode a later run into. A record
// with no such slot — operators emitted more than they took in, or hand
// back what an earlier run left with them — or one handed back outside a
// walk goes to the record pool. A non-pooled streamin does nothing.
func (s *StreamIn) Recycle(r *record.Record) {
	switch {
	case !s.Pooled:
	case s.back < s.walked:
		s.cur[s.back] = r
		s.back++
	default:
		record.Release(r)
	}
}

// SetRunEnd implements RunEnder (see Run for when end is called).
func (s *StreamIn) SetRunEnd(end func(dry bool) error) { s.runEnd = end }

// Addr returns the bound listen address.
func (s *StreamIn) Addr() string { return s.ln.Addr().String() }

// Connections returns the number of upstream connections served.
func (s *StreamIn) Connections() uint64 { return s.conns.Load() }

// BadCloses returns the number of BadCloseScope records synthesized to
// repair streams from failed upstreams.
func (s *StreamIn) BadCloses() uint64 { return s.bad.Load() }

// QueueDepth returns the emit-queue backlog — the records across the
// queued runs, never more than the capacity — and its capacity QueueSize
// (0, 0 when no queue is running). This is the saturation signal node
// heartbeats carry to the coordinator.
func (s *StreamIn) QueueDepth() (depth, capacity int) {
	if c := s.qcap.Load(); c > 0 {
		return int(s.depth.Load()), int(c)
	}
	return 0, 0
}

// QueuePeak returns the high-water mark the emit queue has reached since
// the source started — the observability counterpart of QueueDepth's
// instantaneous reading, surfaced in heartbeats so a transient backlog is
// visible even when every snapshot happens to catch the queue drained.
func (s *StreamIn) QueuePeak() int {
	return int(s.peak.Load())
}

// CorruptBatches returns the number of corrupt v2 batch frames the decoder
// dropped whole across all upstream connections (each drop loses exactly
// that batch; the reader re-syncs on the next frame). Surfaced in
// heartbeats so link-level corruption is visible to the control plane.
func (s *StreamIn) CorruptBatches() uint64 {
	return s.corrupt.Load()
}

// Close stops the source: the listener closes and Run returns after the
// current connection drains.
func (s *StreamIn) Close() error {
	s.cancel()
	return s.ln.Close()
}

// queuedRun is a run in the emit queue; dry marks a run after which the
// input ran dry (see serveConn).
type queuedRun struct {
	recs []*record.Record
	dry  bool
}

// Run implements Source: it accepts connections and forwards their records
// until Close (or MaxConns/IdleTimeout). Without a queue the reader walks
// each run through out itself; with one, a drain goroutine walks the runs
// the reader queues. The run-end hook fires after every run, reporting
// it dry when the input ran dry after it (see serveConn) and — with a
// queue — no further run is queued behind it, so under backlog the
// downstream batch keeps filling.
func (s *StreamIn) Run(out Emitter) error {
	if s.QueueSize <= 0 {
		s.runLen, s.free = runCap, make(chan []*record.Record, 1)
		s.spare = make([]*record.Record, 0, 2*s.runLen)
		return s.acceptLoop(func(run []*record.Record, dry bool) error {
			return s.walk(run, dry, nil, out)
		})
	}
	// Every queued run holds a record, so no channel below holds more runs
	// than the queue holds records, plus one being walked and one filling.
	size := int64(s.QueueSize)
	s.runLen, s.free = min(runCap, s.QueueSize), make(chan []*record.Record, s.QueueSize+2)
	s.spare = make([]*record.Record, 0, 2*s.runLen)
	q := make(chan queuedRun, s.QueueSize)
	room := make(chan struct{}, 1) // poked after every dequeue
	drained, dead := make(chan struct{}), make(chan struct{})
	var drainErr error
	s.qcap.Store(size)
	defer s.qcap.Store(0)
	go func() {
		defer close(drained)
		for qr := range q {
			s.depth.Add(-int64(len(qr.recs)))
			select {
			case room <- struct{}{}:
			default:
			}
			if drainErr != nil {
				s.discard(qr.recs)
				continue
			}
			if drainErr = s.walk(qr.recs, qr.dry, q, out); drainErr != nil {
				close(dead)
				s.cancel() // unblock the reader; what it still queues is discarded
			}
		}
	}()

	err := s.acceptLoop(func(run []*record.Record, dry bool) error {
		// Once the drain has failed, stop at the next run rather than
		// queue what the buffered reader still holds.
		select {
		case <-dead:
			s.discard(run)
			return ErrStopped
		default:
		}
		// Only this goroutine adds to depth, so room seen stays room.
		for n := int64(len(run)); s.depth.Load()+n > size; {
			select {
			case <-room:
			case <-s.ctx.Done():
				s.discard(run)
				return ErrStopped
			}
		}
		d := s.depth.Add(int64(len(run)))
		for p := s.peak.Load(); d > p && !s.peak.CompareAndSwap(p, d); p = s.peak.Load() {
		}
		q <- queuedRun{run, dry}
		return nil
	})
	close(q)
	<-drained
	if drainErr != nil && !errors.Is(drainErr, ErrStopped) {
		return drainErr
	}
	return err
}

// walk emits a run's records to out in order, discarding the rest of the
// run when out fails, and ends the run: the run-end hook reports it dry
// when the input ran dry after it and no run is queued behind it. Then
// the run's buffer is recycled with the records handed back meanwhile.
func (s *StreamIn) walk(run []*record.Record, dry bool, behind chan queuedRun, out Emitter) error {
	s.cur, s.walked, s.back = run, 0, 0
	defer s.recycle()
	for i, r := range run {
		s.walked = i + 1
		if err := out.Emit(r); err != nil {
			s.discard(run[i+1:])
			return err
		}
	}
	if s.runEnd == nil {
		return nil
	}
	return s.runEnd(dry && len(behind) == 0)
}

// discard releases the records of a run that will not be emitted.
func (s *StreamIn) discard(run []*record.Record) {
	if s.Pooled {
		for _, r := range run {
			record.Release(r)
		}
	}
}

// recycle returns the walked run's buffer to the free list, holding the
// records handed back while it was walked; newRun takes it.
func (s *StreamIn) recycle() {
	run, back := s.cur, s.back
	s.cur, s.walked, s.back = nil, 0, 0
	clear(run[back:])
	select {
	case s.free <- run[:back]:
	default:
		s.discard(run[:back])
	}
}

// newRun returns an empty run buffer: a recycled one, whose records join
// the spares the reader decodes into (beyond two runs' worth they go to
// the record pool), or a new one.
func (s *StreamIn) newRun() []*record.Record {
	select {
	case run := <-s.free:
		for _, r := range run {
			if len(s.spare) < cap(s.spare) {
				s.spare = append(s.spare, r)
			} else {
				record.Release(r)
			}
		}
		clear(run)
		return run[:0]
	default:
		return make([]*record.Record, 0, s.runLen)
	}
}

// acceptLoop serves upstream connections sequentially until the source
// stops. Transient accept failures back off and retry rather than killing
// the pipeline; only a closed listener (without Close having been called)
// is fatal.
func (s *StreamIn) acceptLoop(put func(run []*record.Record, dry bool) error) error {
	served := 0
	backoff := 10 * time.Millisecond
	const maxAcceptBackoff = time.Second
	for {
		if s.ctx.Err() != nil {
			return nil
		}
		if s.MaxConns > 0 && served >= s.MaxConns {
			return nil
		}
		if s.IdleTimeout > 0 {
			type deadliner interface{ SetDeadline(time.Time) error }
			if d, ok := s.ln.(deadliner); ok {
				_ = d.SetDeadline(time.Now().Add(s.IdleTimeout))
			}
		}
		conn, err := s.ln.Accept()
		if err != nil {
			if s.ctx.Err() != nil {
				return nil
			}
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				return nil // idle timeout: clean finish
			}
			if errors.Is(err, net.ErrClosed) {
				// The listener is gone and Close was not called: nothing
				// to retry against.
				return fmt.Errorf("streamin: accept: %w", err)
			}
			// Transient (EMFILE, ECONNABORTED, ...): back off and keep
			// serving instead of tearing the whole pipeline down.
			select {
			case <-s.ctx.Done():
				return nil
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxAcceptBackoff {
				backoff = maxAcceptBackoff
			}
			continue
		}
		backoff = 10 * time.Millisecond
		served++
		s.conns.Add(1)
		if err := s.serveConn(conn, put); err != nil {
			return err
		}
	}
}

// serveConn decodes one upstream connection into runs and hands each to
// put, which takes ownership of it; dry reports that the run emptied its
// wire batch and no later frame is buffered, so the next Read waits on the
// network. When the upstream dies mid-scope the open scopes are closed
// with BadCloseScope repairs.
func (s *StreamIn) serveConn(conn net.Conn, put func(run []*record.Record, dry bool) error) error {
	defer conn.Close()
	// Close the connection when the source is stopped so the blocking
	// read below unblocks.
	stop := context.AfterFunc(s.ctx, func() { _ = conn.Close() })
	defer stop()

	tracker := record.NewTracker()
	rd := record.NewReaderSize(conn, record.DefaultReadBufferSize)
	rd.SetPooled(s.Pooled)
	var seenCorrupt uint64
	run := s.newRun()
	for {
		// Decode into a spare when there is one; it leaves the spares
		// only when its record joins the run.
		var dst *record.Record
		if n := len(s.spare); n > 0 {
			dst = s.spare[n-1]
		}
		rec, err := rd.ReadInto(dst)
		if c := rd.CorruptBatches(); c != seenCorrupt {
			s.corrupt.Add(c - seenCorrupt)
			seenCorrupt = c
		}
		if err != nil {
			if !errors.Is(err, io.EOF) || tracker.Depth() != 0 {
				// Upstream terminated unexpectedly (mid-record, or
				// mid-scope): close all open scopes so downstream state
				// resynchronizes at a scope boundary. Each repair is a
				// run of its own, so no run outgrows a small queue.
				for _, bc := range tracker.CloseAll() {
					s.bad.Add(1)
					if err := put(append(s.newRun(), bc), true); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if err := tracker.Observe(rec); err != nil {
			// Structurally invalid record (e.g. stray CloseScope from a
			// confused upstream): drop it rather than poison downstream.
			if s.Pooled && dst == nil {
				record.Release(rec)
			}
		} else {
			if dst != nil {
				n := len(s.spare) - 1
				s.spare[n] = nil
				s.spare = s.spare[:n]
			}
			run = append(run, rec)
		}
		// Cut the run before the next Read can block on the network; the
		// input has run dry if no later frame is buffered either.
		if len(run) == s.runLen || (len(run) > 0 && rd.BatchLeft() == 0) {
			// Ingress stamp for the latency tracer, one clock read per
			// run: time from here to the end of the run's walk to the
			// hosting pipeline's sink stage is this unit's latency. The
			// stamp is in-memory only.
			now := time.Now().UnixNano()
			for _, r := range run {
				r.IngressNanos = now
			}
			if err := put(run, rd.BatchLeft() == 0 && rd.Buffered() == 0); err != nil {
				return err
			}
			run = s.newRun()
		}
	}
}
