package replica

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
)

// DefaultWindow is the default reorder window: how many out-of-order
// records a merger buffers before concluding that the gap at the head
// will never be filled (every leg that carried it died) and skipping
// forward.
const DefaultWindow = 1024

// MergerConfig parameterizes a Merger.
type MergerConfig struct {
	// Group names the replicated segment group (stream identity).
	Group string
	// ListenAddr is the listen address replica legs dial ("host:0" for
	// ephemeral).
	ListenAddr string
	// Window bounds the reorder buffer (default DefaultWindow).
	Window int
	// Pooled decodes leg records into pool-backed storage
	// (record.GetRecord) and marks the merger as a recycling source: a
	// hosting pipeline releases each emitted record after its sink
	// consumes it. Enable only when every downstream consumer honors the
	// ownership contract in record/pool.go.
	Pooled bool
	// Stream overrides the stream identity derived from Group (0 derives
	// record.ReplicaStreamID(Group)). The shard collector reuses the
	// merger's ring-reorder core under its own stream namespace.
	Stream uint32
	// Role overrides the role the merger reports in names and stats
	// (default "merge").
	Role string
	// ZeroBased declares that each tagging epoch numbers from 0 and that
	// the transport bounds the records in flight below Window. On an epoch
	// resync the merger then anchors at 0 whenever the first record
	// observed is inside the window, instead of at that record. Replica
	// legs never need this — every leg carries the whole stream in order,
	// so the first arrival of an epoch is its head — but shard legs each
	// start at whatever sequence first hashed to them, and anchoring at a
	// fast leg's first record would misorder or drop the slower legs'
	// heads. A first observation beyond the window still anchors there
	// (the stream was already running; this merger joined mid-flight).
	ZeroBased bool
}

// Merger is a pipeline.Source that accepts the N replica legs of a
// replicated segment concurrently and emits their union downstream
// exactly once: records are deduplicated by the splitter's sequence
// annotation, reordered within a bounded window, and validated against
// the output scope structure so that even a gap skipped after an all-leg
// failure leaves downstream consumers with a structurally valid stream
// (the merger closes the scopes the gap orphaned, exactly like the
// streamin repair path).
//
// Untagged records are discarded: the scope repairs a dying replica's
// streamin synthesizes for its own severed leg carry no tag, and
// swallowing them here is precisely what makes a replica death invisible
// downstream.
type Merger struct {
	group     string
	stream    uint32
	role      string
	window    int
	pooled    bool
	zeroBased bool
	ln        net.Listener
	ctx       context.Context
	cancel    context.CancelFunc

	// Telemetry is atomic so stats snapshots (heartbeats) never block
	// behind an in-flight Emit holding mu.
	conns    atomic.Uint64 // cumulative accepted legs
	live     atomic.Int64  // currently connected legs
	depth    atomic.Int64  // reorder-window occupancy
	dups     atomic.Uint64
	skipped  atomic.Uint64
	untagged atomic.Uint64
	repairs  atomic.Uint64
	corrupt  atomic.Uint64 // corrupt v2 batches dropped by leg decoders

	mu        sync.Mutex // guards the dedup state below
	epoch     uint16
	haveEpoch bool
	next      uint64
	// The reorder buffer is a seq-indexed ring: a record with annotation
	// n waits in ring[n%window] (with ringSeq confirming the slot's
	// occupant), which makes the dedup probe and the insert a couple of
	// array accesses instead of map churn — no per-record hashing, no
	// rehash garbage, O(1) in the steady state.
	ring    []*record.Record
	ringSeq []uint64
	nring   int             // occupied ring slots
	tracker *record.Tracker // output scope structure
	emitErr error
	runEnd  func(dry bool) error // see SetRunEnd; nil when run ends need nothing
}

// NewMerger binds the merger's listener.
func NewMerger(cfg MergerConfig) (*Merger, error) {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	addr := cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("replica: merger listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if cfg.Stream == 0 {
		cfg.Stream = record.ReplicaStreamID(cfg.Group)
	}
	if cfg.Role == "" {
		cfg.Role = "merge"
	}
	return &Merger{
		group:     cfg.Group,
		stream:    cfg.Stream,
		role:      cfg.Role,
		window:    cfg.Window,
		pooled:    cfg.Pooled,
		zeroBased: cfg.ZeroBased,
		ln:        ln,
		ctx:       ctx,
		cancel:    cancel,
		ring:      make([]*record.Record, cfg.Window),
		ringSeq:   make([]uint64, cfg.Window),
		tracker:   record.NewTracker(),
	}, nil
}

// Name implements pipeline.Source.
func (m *Merger) Name() string { return m.role + "(" + m.group + ")" }

// Addr returns the bound listen address replica legs dial.
func (m *Merger) Addr() string { return m.ln.Addr().String() }

// PreservesSeq implements pipeline.SeqPreserver: emitted records keep
// their replication tags, so a downstream hop can still observe them.
func (m *Merger) PreservesSeq() bool { return true }

// RecyclesRecords implements pipeline.RecycledSource: a pooled merger's
// records are released back to the record pool by the hosting pipeline
// once the sink has consumed them.
func (m *Merger) RecyclesRecords() bool { return m.pooled }

// SetRunEnd implements pipeline.RunEnder. A merger's run is one leg's
// decoded batch: end is called, under the lock that serializes emission,
// each time a leg's batch is exhausted, which times what the batch
// released for the latency tracer. It reports dry when no later frame is
// buffered on that leg, so a streamout sink delivers what the batch
// released without waiting for its delay timer.
func (m *Merger) SetRunEnd(end func(dry bool) error) { m.runEnd = end }

var _ pipeline.RunEnder = (*Merger)(nil)

// Connections returns the cumulative number of legs served.
func (m *Merger) Connections() uint64 { return m.conns.Load() }

// BadCloses returns the number of BadCloseScope repairs the merger
// emitted (after gap skips and epoch changes).
func (m *Merger) BadCloses() uint64 { return m.repairs.Load() }

// Dups returns the duplicate replica copies discarded.
func (m *Merger) Dups() uint64 { return m.dups.Load() }

// Skipped returns the records lost to gap skips (every leg carrying them
// died before delivering).
func (m *Merger) Skipped() uint64 { return m.skipped.Load() }

// Untagged returns the records discarded for carrying no usable
// replication tag (typically single-leg scope repairs) or for being
// structurally unemittable after a skip.
func (m *Merger) Untagged() uint64 { return m.untagged.Load() }

// QueueDepth reports the reorder-window occupancy against its bound —
// the merger's saturation gauge for load-aware placement.
func (m *Merger) QueueDepth() (depth, capacity int) {
	return int(m.depth.Load()), m.window
}

// slot returns the ring index annotation n maps to.
func (m *Merger) slot(n uint64) uint64 { return n % uint64(len(m.ring)) }

// bufferedLocked returns the buffered record for annotation n, or nil.
func (m *Merger) bufferedLocked(n uint64) *record.Record {
	s := m.slot(n)
	if m.ring[s] != nil && m.ringSeq[s] == n {
		return m.ring[s]
	}
	return nil
}

// takeLocked removes and returns the buffered record for annotation n.
func (m *Merger) takeLocked(n uint64) *record.Record {
	s := m.slot(n)
	r := m.ring[s]
	if r == nil || m.ringSeq[s] != n {
		return nil
	}
	m.ring[s] = nil
	m.nring--
	m.depth.Store(int64(m.nring))
	return r
}

// clearRingLocked discards (and recycles) every buffered record.
func (m *Merger) clearRingLocked() {
	for i, r := range m.ring {
		if r != nil {
			record.Release(r)
			m.ring[i] = nil
		}
	}
	m.nring = 0
	m.depth.Store(0)
}

// CorruptBatches returns the number of corrupt v2 batch frames dropped
// whole by the leg decoders (see record.Reader.CorruptBatches).
func (m *Merger) CorruptBatches() uint64 { return m.corrupt.Load() }

// FillStats implements pipeline.EndpointStatser.
func (m *Merger) FillStats(st *pipeline.SegmentStats) {
	st.Role = m.role
	st.Legs = int(m.live.Load())
	st.Dups = m.dups.Load()
	st.Skipped = m.skipped.Load()
	st.Untagged = m.untagged.Load()
	st.Corrupt += m.corrupt.Load()
}

// Close stops the merger: the listener closes and Run returns after the
// live legs unwind.
func (m *Merger) Close() error {
	m.cancel()
	return m.ln.Close()
}

// Run implements pipeline.Source: serve replica legs concurrently until
// Close (or a downstream emission failure), then flush what the reorder
// window still holds — in order, counting unfillable gaps as skipped —
// and close any scopes left open so the downstream stream ends balanced.
func (m *Merger) Run(out pipeline.Emitter) error {
	var wg sync.WaitGroup
	backoff := 10 * time.Millisecond
	const maxAcceptBackoff = time.Second
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			if m.ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				break
			}
			// Transient (EMFILE, ECONNABORTED, ...): the merger is the
			// group's single fan-in point, so back off and keep serving
			// rather than tearing the whole replica group down.
			select {
			case <-m.ctx.Done():
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxAcceptBackoff {
				backoff = maxAcceptBackoff
			}
			continue
		}
		backoff = 10 * time.Millisecond
		m.conns.Add(1)
		m.live.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.serveLeg(conn, out)
			m.live.Add(-1)
		}()
	}
	wg.Wait()

	m.mu.Lock()
	defer m.mu.Unlock()
	m.finishLocked(out)
	if m.emitErr != nil {
		return m.emitErr
	}
	return nil
}

// serveLeg drains one replica connection into the dedup core.
func (m *Merger) serveLeg(conn net.Conn, out pipeline.Emitter) {
	defer conn.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-m.ctx.Done():
			_ = conn.Close()
		case <-stop:
		}
	}()
	rd := record.NewReaderSize(conn, record.DefaultReadBufferSize)
	rd.SetPooled(m.pooled)
	var seenCorrupt uint64
	var stamp int64 // ingress stamp of the leg batch being decoded; 0 between batches
	for {
		rec, err := rd.Read()
		if c := rd.CorruptBatches(); c != seenCorrupt {
			m.corrupt.Add(c - seenCorrupt)
			seenCorrupt = c
		}
		if err != nil {
			return
		}
		// Ingress stamp for the latency tracer, one clock read per leg
		// batch as in StreamIn: merger units measure from leg decode to
		// the end of the run that reached the sink stage.
		if stamp == 0 {
			stamp = time.Now().UnixNano()
		}
		rec.IngressNanos = stamp
		err = m.ingest(rec, out)
		if err == nil && rd.BatchLeft() == 0 {
			stamp = 0
			if m.runEnd != nil {
				m.mu.Lock()
				err = m.runEnd(rd.Buffered() == 0)
				m.mu.Unlock()
			}
		}
		if err != nil {
			// Downstream failed: stop the whole source so the hosted
			// pipeline unwinds with the emission error.
			m.mu.Lock()
			if m.emitErr == nil {
				m.emitErr = err
			}
			m.mu.Unlock()
			_ = m.Close()
			return
		}
	}
}

// ingest runs one record through dedup and in-order emission. All state
// is under mu; Emit happens under mu too, which serializes downstream
// emission across legs (and propagates backpressure to every leg, which
// is correct — they all carry the same stream).
func (m *Merger) ingest(r *record.Record, out pipeline.Emitter) error {
	epoch, n, ok := record.ReplicaTag(r, m.stream)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !ok {
		m.untagged.Add(1)
		record.Release(r)
		return nil
	}
	switch {
	case !m.haveEpoch || epoch > m.epoch:
		// A new splitter incarnation (or the first record ever): abandon
		// whatever the old epoch still owed, repair the seam, and
		// resynchronize at the first record observed of the new epoch.
		if m.haveEpoch {
			if err := m.repairLocked(out); err != nil {
				return err
			}
		}
		m.epoch, m.haveEpoch = epoch, true
		m.next = n
		if m.zeroBased && n < uint64(m.window) {
			// The epoch numbers from 0 and this observation is within the
			// in-flight bound, so the stream head is (or soon will be) in
			// flight on some leg: wait for it rather than anchoring past it.
			m.next = 0
		}
		m.clearRingLocked()
	case epoch < m.epoch:
		// A stale leg still relaying the old splitter's stream.
		m.dups.Add(1)
		record.Release(r)
		return nil
	}
	// A record more than a window ahead of the head means the gap at the
	// head will never be filled: every replica that carried [next, lo)
	// is gone. Skip forward so the stream keeps flowing, and repair the
	// scope structure across the hole.
	for n > m.next && n-m.next > uint64(m.window) {
		lo := n
		if m.nring > 0 {
			lo = m.minPendingLocked()
		}
		m.skipped.Add(lo - m.next)
		m.next = lo
		if err := m.repairLocked(out); err != nil {
			return err
		}
		if err := m.drainLocked(out); err != nil {
			return err
		}
	}
	switch {
	case n < m.next:
		m.dups.Add(1)
		record.Release(r)
		return nil
	case n > m.next:
		s := m.slot(n)
		if m.ring[s] != nil {
			// Within a window-bounded span the only way a slot is taken
			// is by the same annotation: a duplicate copy from another
			// leg.
			m.dups.Add(1)
			record.Release(r)
			return nil
		}
		m.ring[s] = r
		m.ringSeq[s] = n
		m.nring++
		m.depth.Store(int64(m.nring))
		return nil
	default: // n == m.next
		if err := m.emitLocked(r, out); err != nil {
			return err
		}
		m.next++
	}
	return m.drainLocked(out)
}

// drainLocked emits consecutively buffered records starting at next.
func (m *Merger) drainLocked(out pipeline.Emitter) error {
	for {
		r := m.takeLocked(m.next)
		if r == nil {
			return nil
		}
		if err := m.emitLocked(r, out); err != nil {
			return err
		}
		m.next++
	}
}

// emitLocked validates a record against the output scope structure and
// emits it. Records a skip left structurally invalid (a close whose open
// fell into the gap) are discarded — downstream must only ever see a
// well-formed stream.
func (m *Merger) emitLocked(r *record.Record, out pipeline.Emitter) error {
	if err := m.tracker.Observe(r); err != nil {
		m.untagged.Add(1)
		record.Release(r)
		return nil
	}
	return out.Emit(r)
}

// repairLocked closes every open output scope with BadCloseScope records,
// the same resynchronization contract streamin uses.
func (m *Merger) repairLocked(out pipeline.Emitter) error {
	for _, bc := range m.tracker.CloseAll() {
		m.repairs.Add(1)
		if err := out.Emit(bc); err != nil {
			return err
		}
	}
	return nil
}

// finishLocked drains the window in order at shutdown, counting gaps as
// skipped, then balances the output stream.
func (m *Merger) finishLocked(out pipeline.Emitter) {
	if m.emitErr != nil {
		return
	}
	for m.nring > 0 {
		lo := m.minPendingLocked()
		if lo > m.next {
			m.skipped.Add(lo - m.next)
			m.next = lo
		}
		if m.drainLocked(out) != nil {
			return
		}
	}
	_ = m.repairLocked(out)
}

// minPendingLocked returns the smallest buffered annotation; the caller
// ensures the ring is non-empty. The scan is O(window) but runs only on
// gap skips and shutdown, never in the steady state.
func (m *Merger) minPendingLocked() uint64 {
	var lo uint64
	first := true
	for i, r := range m.ring {
		if r == nil {
			continue
		}
		if n := m.ringSeq[i]; first || n < lo {
			lo, first = n, false
		}
	}
	return lo
}
