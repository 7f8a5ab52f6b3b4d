package replica

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
)

// DefaultLegQueue is the per-leg record buffer of a fan-out endpoint: how
// far one slow or dead leg may fall behind before the endpoint's routing
// policy reacts — the splitter drops records toward that leg alone (the
// other replicas still carry them), the shard partitioner blocks the
// stream (the record exists on no other leg).
const DefaultLegQueue = 256

// retireLinger is how long a retired leg keeps draining after its queue
// last went empty before closing its streamout, and how long it may go
// without flushing a record before it gives up on the old address. A leg
// removed by a scale-in or a planned re-splice may still receive a
// straggler from a Consume that routed against the old leg set moments
// before the swap; the linger flushes those through the old instance
// (which the control plane stops only after its own settle), so a shrink
// loses nothing.
const retireLinger = 500 * time.Millisecond

// LegSetConfig parameterizes a LegSet. Role, Stream and Drain are fixed by
// the endpoint type embedding the set; the rest is the endpoint's own
// config passed through.
type LegSetConfig struct {
	Role     string // "split" or "partition": names and stats
	Group    string
	Stream   uint32 // stream identity records are tagged with
	Epoch    uint16
	Legs     []string
	LegQueue int                // default DefaultLegQueue
	Flush    record.BatchConfig // zero value: record.DefaultBatchConfig()
	// Drain selects what SetLegs does with the queue of a leg it drops.
	// False abandons it with a hard stop: the records are a dead
	// replica's, and every other replica still carries them. True retires
	// the leg: the writer flushes the queued tail through the old
	// connection and closes only after the queue has stayed empty for
	// retireLinger, because a shard record exists on no other leg.
	Drain bool
}

// LegSet is the fan-out core under Splitter and shard.Partitioner: an
// ordered set of legs — each a bounded queue drained by a dedicated
// writer goroutine into a batched streamout, which the writer flushes
// whenever it has emptied the queue (under backlog the queue stays
// non-empty and batches fill) — plus the sequence tagging,
// the live leg-set diff, and the egress accounting both endpoints share.
// What differs between them, which legs a record is enqueued on and what
// a full queue means, stays in each endpoint's own Consume, written
// against Tag, View and the LegView a Consume holds.
type LegSet struct {
	cfg LegSetConfig // defaults applied; Legs is only the boot set

	drops atomic.Uint64
	quit  chan struct{} // closed by Close

	mu sync.Mutex
	// legs is copy-on-write: SetLegs installs a fresh slice and never
	// mutates one a LegView may hold, so Consume snapshots it for free.
	legs    []*leg
	removed []*leg // dropped legs whose writers have not exited yet
	gone    egress // final counts of reaped legs: totals never step back
	seq     uint64
	closed  bool
	// changed is closed (and replaced) on every SetLegs, waking a Consume
	// blocked on a saturated leg that just got swapped out.
	changed chan struct{}
}

// egress is a streamout's flushed totals.
type egress struct{ records, batches, bytes uint64 }

func (e *egress) add(out *pipeline.StreamOut) {
	e.records += out.RecordsOut()
	e.batches += out.BatchesOut()
	e.bytes += out.BytesOut()
}

// NewLegSet returns a leg set fanning out to cfg.Legs.
func NewLegSet(cfg LegSetConfig) *LegSet {
	if cfg.LegQueue <= 0 {
		cfg.LegQueue = DefaultLegQueue
	}
	if cfg.Flush.MaxRecords == 0 && cfg.Flush.MaxBytes == 0 {
		cfg.Flush = record.DefaultBatchConfig()
	}
	s := &LegSet{cfg: cfg, quit: make(chan struct{}), changed: make(chan struct{})}
	s.SetLegs(cfg.Legs)
	return s
}

// Name implements pipeline.Sink.
func (s *LegSet) Name() string { return s.cfg.Role + "(" + s.cfg.Group + ")" }

// Seq returns the number of records tagged so far.
func (s *LegSet) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Legs returns the current leg addresses in SetLegs (routing) order.
func (s *LegSet) Legs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.legs))
	for i, l := range s.legs {
		out[i] = l.addr
	}
	return out
}

// LegDrops returns the records not carried by every leg: dropped toward a
// saturated or dead replica leg, or consumed while the set was empty.
func (s *LegSet) LegDrops() uint64 { return s.drops.Load() }

// LegRecords returns per-leg flushed record counts keyed by address — the
// skew gauge: a hot key set shows up as one leg carrying a multiple of
// its siblings' counts.
func (s *LegSet) LegRecords() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.legs))
	for _, l := range s.legs {
		out[l.addr] = l.out.RecordsOut()
	}
	return out
}

// LegView is an immutable snapshot of the leg set, held by one Consume.
type LegView struct {
	set     *LegSet
	legs    []*leg
	changed chan struct{}
}

// Tag stamps r with the set's next sequence number and returns the
// current legs WITH THE SET STILL LOCKED, so an Offer made before Unlock
// cannot race a SetLegs; the caller must Unlock. A closed set returns
// pipeline.ErrStopped, unlocked.
func (s *LegSet) Tag(r *record.Record) (LegView, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return LegView{}, pipeline.ErrStopped
	}
	record.TagReplica(r, s.cfg.Stream, s.cfg.Epoch, s.seq)
	s.seq++
	return LegView{set: s, legs: s.legs, changed: s.changed}, nil
}

// Unlock releases the lock Tag returned with.
func (s *LegSet) Unlock() { s.mu.Unlock() }

// View snapshots the current legs, for a Consume whose view went stale.
func (s *LegSet) View() LegView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return LegView{set: s, legs: s.legs, changed: s.changed}
}

// Len returns the number of legs in the view.
func (v LegView) Len() int { return len(v.legs) }

// Offer enqueues a pool-backed copy of r on leg i (released by the leg
// writer once flushed to the wire) unless its queue is full.
func (v LegView) Offer(i int, r *record.Record) bool { return v.legs[i].offer(r) }

// Send blocks until leg i accepts a copy of r. It returns false when the
// leg set changed first — the caller re-routes on a fresh View; a retried
// enqueue that lands twice is absorbed by the fan-in's dedup — and
// pipeline.ErrStopped when the set closed. The send may race a concurrent
// SetLegs and land on a just-removed leg; a draining leg's linger flushes
// such stragglers through the old instance.
func (v LegView) Send(i int, r *record.Record) (bool, error) {
	c := record.GetCopy(r)
	select {
	case v.legs[i].q <- c:
		return true, nil
	case <-v.changed:
		record.Release(c)
		return false, nil
	case <-v.set.quit:
		record.Release(c)
		return false, pipeline.ErrStopped
	}
}

// Dropped counts a record no leg existed to carry (the group is
// mid-repair with an empty leg set): counted rather than blocking a
// stream nobody serves; the fan-in skips the gap once legs return.
func (s *LegSet) Dropped() { s.drops.Add(1) }

// SetLegs replaces the leg set with addrs, in order. Addresses already
// served keep their leg (queued records and the live connection survive a
// reorder), new addresses gain a fresh leg, and legs no longer wanted are
// removed per the set's Drain policy. The control plane calls this to
// grow, shrink and repair the fan-out of a live stream.
func (s *LegSet) SetLegs(addrs []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	old := slices.Clone(s.legs)
	next := make([]*leg, 0, len(addrs))
	for _, a := range addrs {
		if a == "" {
			continue
		}
		i := slices.IndexFunc(old, func(l *leg) bool { return l.addr == a })
		if i < 0 {
			next = append(next, s.newLeg(a))
			continue
		}
		next = append(next, old[i])
		old = slices.Delete(old, i, i+1)
	}
	for _, l := range old {
		if s.cfg.Drain {
			close(l.retire)
			l.watchRetired(l.out.RecordsOut())
		} else {
			l.shutdown()
		}
	}
	s.removed = append(s.removed, old...)
	s.reapLocked()
	s.legs = next
	close(s.changed)
	s.changed = make(chan struct{})
}

// reapLocked folds removed legs whose writers have exited into the gone
// totals; their streamouts can count nothing further.
func (s *LegSet) reapLocked() {
	pending := s.removed[:0]
	for _, l := range s.removed {
		select {
		case <-l.done:
			s.gone.add(l.out)
		default:
			pending = append(pending, l)
		}
	}
	clear(s.removed[len(pending):])
	s.removed = pending
}

// egress sums what every leg this set ever owned flushed to the wire, so
// the totals are monotonic across leg swaps.
func (s *LegSet) egress() egress {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapLocked()
	total := s.gone
	for _, l := range s.legs {
		total.add(l.out)
	}
	for _, l := range s.removed {
		total.add(l.out)
	}
	return total
}

// RecordsOut returns the records flushed to the wire, summed over legs.
func (s *LegSet) RecordsOut() uint64 { return s.egress().records }

// BatchesOut returns the batch writes issued, summed over legs.
func (s *LegSet) BatchesOut() uint64 { return s.egress().batches }

// BytesOut returns the encoded bytes written, summed over legs.
func (s *LegSet) BytesOut() uint64 { return s.egress().bytes }

// FillStats implements pipeline.EndpointStatser.
func (s *LegSet) FillStats(st *pipeline.SegmentStats) {
	st.Role = s.cfg.Role
	st.LegDrops = s.drops.Load()
	s.mu.Lock()
	st.Legs = len(s.legs)
	s.mu.Unlock()
}

// Close shuts every leg down, draining ones included. Queued records
// toward live legs are abandoned; callers that care should quiesce the
// stream first.
func (s *LegSet) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	ls := append(s.legs, s.removed...)
	s.legs, s.removed = nil, nil
	s.mu.Unlock()
	for _, l := range ls {
		l.shutdown()
		<-l.done
	}
	return nil
}

// leg is one fan-out downstream: a bounded queue drained by a dedicated
// writer goroutine into a batched streamout.
type leg struct {
	addr     string
	out      *pipeline.StreamOut
	q        chan *record.Record
	stop     chan struct{} // hard stop: queue abandoned, write unblocked
	stopOnce sync.Once
	retire   chan struct{} // soft removal: drain the queue, linger, close
	done     chan struct{}
}

func (s *LegSet) newLeg(addr string) *leg {
	l := &leg{
		addr:   addr,
		out:    pipeline.NewStreamOutBatched(addr, s.cfg.Flush),
		q:      make(chan *record.Record, s.cfg.LegQueue),
		stop:   make(chan struct{}),
		retire: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go l.run()
	return l
}

// offer enqueues a pool-backed copy of r unless the queue is full.
func (l *leg) offer(r *record.Record) bool {
	c := record.GetCopy(r)
	select {
	case l.q <- c:
		return true
	default:
		record.Release(c)
		return false
	}
}

// run drains the leg queue into the streamout until the leg is hard-
// stopped, or — once retired — until the queue has stayed empty for
// retireLinger: long enough to flush the queued tail and for a Consume
// that routed against the old leg set to land its straggler. A write
// stuck redialling a dead address is unblocked by closing the streamout
// (shutdown, or watchRetired for a retired leg), which also ends the
// writer; any other write error is the fan-in's and the control plane's
// problem, never the stream's.
func (l *leg) run() {
	defer close(l.done)
	retire := l.retire
	var idle *time.Timer // armed once retired
	var idleC <-chan time.Time
	for {
		select {
		case <-l.stop:
			return
		case <-retire:
			retire = nil
			idle = time.NewTimer(retireLinger)
			defer idle.Stop()
			idleC = idle.C
		case <-idleC:
			_ = l.out.Close()
			return
		case r := <-l.q:
			if errors.Is(l.drain(r), pipeline.ErrStopped) {
				return
			}
			if idle != nil {
				idle.Reset(retireLinger)
			}
		}
	}
}

// drain writes r and every record queued behind it to the streamout, then
// flushes: a queue that ran dry delivers its batch now, not at MaxDelay,
// while under backlog the queue keeps the batch filling. StreamOut encodes
// synchronously, so each copy goes back to the pool as soon as Consume
// returns.
func (l *leg) drain(r *record.Record) error {
	for {
		err := l.out.Consume(r)
		record.Release(r)
		if errors.Is(err, pipeline.ErrStopped) {
			return err
		}
		select {
		case r = <-l.q:
		default:
			return l.out.Flush()
		}
	}
}

// watchRetired bounds a retired leg's drain: if a whole retireLinger
// passes without the leg flushing a record (flushed is the count at the
// last look) the old address is dead — StreamOut would redial it forever,
// pinning the writer goroutine and the streamout — so the streamout is
// closed and the tail nobody can receive is abandoned. A leg that is
// merely idle closes itself on the same clock, so the watch never cuts a
// drain that still has somewhere to flush to.
func (l *leg) watchRetired(flushed uint64) {
	time.AfterFunc(retireLinger, func() {
		select {
		case <-l.done:
			return
		default:
		}
		if now := l.out.RecordsOut(); now != flushed {
			l.watchRetired(now)
			return
		}
		_ = l.out.Close()
	})
}

// shutdown hard-stops the leg writer, unblocking any in-flight write and
// abandoning the queue.
func (l *leg) shutdown() {
	l.stopOnce.Do(func() { close(l.stop) })
	_ = l.out.Close()
}
