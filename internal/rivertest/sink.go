package rivertest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/river"
)

// Throttle is a record-preserving relay operator whose per-record cost is
// set at run time: the lever that makes a node fall behind on command.
type Throttle struct{ delay atomic.Int64 }

// Set makes every record cost d.
func (th *Throttle) Set(d time.Duration) { th.delay.Store(int64(d)) }

func (*Throttle) Name() string { return "relay" }

func (th *Throttle) Process(r *record.Record, out pipeline.Emitter) error {
	if d := th.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d)) // emulates operator cost
	}
	return out.Emit(r)
}

// Tally is what reached a Sink. Numbered records (data records carrying
// one float64, their index, as the Load sends them) are audited for
// exactly-once delivery and for order per key (SourceID).
type Tally struct {
	Received   int // distinct indices
	Missing    int // indices below the sent count never received (Audit only)
	Duplicated int // indices received more than once
	Reordered  int // first deliveries below an earlier index of their key
	Repairs    int // BadCloseScope markers
	Violations int // scope records breaking the nesting rules
	Open       int // scopes open now
	Ensembles  int // ensemble scopes closed cleanly
	Closes     int // top-level scopes closed cleanly
}

func (t Tally) String() string {
	return fmt.Sprintf("%d missing, %d duplicated, %d reordered, %d scope repairs, %d scope violations",
		t.Missing, t.Duplicated, t.Reordered, t.Repairs, t.Violations)
}

// Sink is an audited pipeline terminal.
type Sink struct {
	t       T
	in      *pipeline.StreamIn
	mu      sync.Mutex
	wake    chan struct{} // closed and replaced on every record
	tracker *record.Tracker
	seen    map[int]int
	last    map[uint32]int
	tally   Tally
}

func newSink(t T) *Sink {
	return &Sink{t: t, wake: make(chan struct{}), tracker: record.NewTracker(),
		seen: map[int]int{}, last: map[uint32]int{}}
}

// NewSink listens on a loopback port and audits everything that arrives
// there until the test (or program) ends.
func NewSink(t T) *Sink {
	t.Helper()
	s := newSink(t)
	in, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatalf("sink: %v", err)
	}
	s.in = in
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = pipeline.New().SetSource(in).SetSink(s).Run(context.Background())
	}()
	t.Cleanup(func() { _ = in.Close(); <-done })
	return s
}

// Addr is the address upstream segments dial.
func (s *Sink) Addr() string { return s.in.Addr() }

func (*Sink) Name() string { return "audit" }

// Consume audits one record.
func (s *Sink) Consume(r *record.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	balanced := s.tracker.Observe(r) == nil
	if !balanced {
		s.tally.Violations++
	}
	s.tally.Open = s.tracker.Depth()
	switch r.Kind {
	case record.KindData:
		if v, err := r.Float64s(); err == nil && len(v) == 1 {
			i := int(v[0])
			s.seen[i]++
			switch last, ok := s.last[r.SourceID]; {
			case s.seen[i] == 2:
				s.tally.Duplicated++
			case s.seen[i] > 2:
			case ok && i < last:
				s.tally.Reordered++
			default:
				s.last[r.SourceID] = i
			}
			s.tally.Received = len(s.seen)
		}
	case record.KindCloseScope:
		if balanced && r.ScopeType == record.ScopeEnsemble {
			s.tally.Ensembles++
		}
		if balanced && r.Scope == 0 {
			s.tally.Closes++
		}
	case record.KindBadCloseScope:
		s.tally.Repairs++
	}
	close(s.wake)
	s.wake = make(chan struct{})
	return nil
}

// Tally is a snapshot of the audit.
func (s *Sink) Tally() Tally {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tally
}

// Audit is the tally with Missing counted against sent numbered records.
func (s *Sink) Audit(sent int) Tally {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tally
	for i := range sent {
		if s.seen[i] == 0 {
			t.Missing++
		}
	}
	return t
}

// Await waits until cond holds for the tally and returns it.
func (s *Sink) Await(what string, cond func(Tally) bool) Tally {
	s.t.Helper()
	timer := time.NewTimer(Timeout)
	defer timer.Stop()
	for {
		s.mu.Lock()
		t, wake := s.tally, s.wake
		s.mu.Unlock()
		if cond(t) {
			return t
		}
		select {
		case <-wake:
		case <-timer.C:
			s.t.Fatalf("timed out waiting for %s at the sink: %+v", what, t)
		}
	}
}

// AwaitReceived waits until n distinct numbered records have arrived.
func (s *Sink) AwaitReceived(n int) Tally {
	s.t.Helper()
	return s.Await(fmt.Sprintf("%d records", n), func(t Tally) bool { return t.Received >= n })
}

// AwaitMore waits until n more distinct numbered records have arrived
// than now.
func (s *Sink) AwaitMore(n int) Tally {
	s.t.Helper()
	return s.AwaitReceived(s.Tally().Received + n)
}

// Stream is a batched streamout into a pipeline's entry that follows the
// entry the coordinator publishes, switching at a scope boundary when a
// planned drain moves it.
type Stream struct {
	*pipeline.StreamOut
	moves atomic.Int32
}

// Stream opens a Stream into pipeline id ("" is the default one). The
// entry watch survives coordinator restarts at the same address.
func (c *Cluster) Stream(id string) *Stream {
	c.t.Helper()
	type entry struct {
		addr     string
		boundary bool
	}
	addr := c.cfg.ListenAddr
	ctx, cancel := context.WithCancel(context.Background())
	entries := make(chan entry, 16) // moves may queue while a redirect waits for a boundary
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			_ = river.WatchPipelineEntry(ctx, addr, id, func(a string, boundary bool) {
				select {
				case entries <- entry{a, boundary}:
				case <-ctx.Done():
				}
			})
			select {
			case <-time.After(50 * time.Millisecond): // the coordinator is restarting
			case <-ctx.Done():
			}
		}
	}()
	var first entry
	select {
	case first = <-entries:
	case <-time.After(Timeout):
		cancel()
		c.t.Fatalf("no entry for pipeline %q", id)
	}
	s := &Stream{StreamOut: pipeline.NewStreamOutBatched(first.addr, record.DefaultBatchConfig())}
	go func() {
		defer wg.Done()
		for {
			select {
			case e := <-entries:
				if e.addr != s.Target() {
					s.moves.Add(1)
				}
				if e.boundary {
					go s.RedirectAtBoundary(e.addr, 5*time.Second)
				} else {
					s.Redirect(e.addr)
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	c.t.Cleanup(func() { cancel(); wg.Wait(); _ = s.Close() })
	return s
}

// Moves counts the entry moves the stream followed.
func (s *Stream) Moves() int { return int(s.moves.Load()) }

// Load paces numbered records into a Stream: record i carries payload i
// and, with Keys > 0, SourceID 1+i%Keys. With Clip > 0 every Clip records
// form a clip scope; otherwise one session scope wraps the run.
type Load struct {
	*Stream
	t     T
	pace  time.Duration
	keys  int
	clip  int
	stop  chan struct{}
	done  chan struct{}
	next  int
	err   error
	ended bool
}

// LoadSpec shapes a Load. Pace is the sleep after each record (200 µs
// when zero).
type LoadSpec struct {
	Pipeline   string
	Pace       time.Duration
	Keys, Clip int
}

// Load starts a paced load into spec.Pipeline.
func (c *Cluster) Load(spec LoadSpec) *Load {
	c.t.Helper()
	l := &Load{Stream: c.Stream(spec.Pipeline), t: c.t, pace: spec.Pace, keys: spec.Keys, clip: spec.Clip,
		stop: make(chan struct{}), done: make(chan struct{})}
	if l.pace == 0 {
		l.pace = 200 * time.Microsecond
	}
	if l.clip == 0 {
		l.err = l.Consume(record.NewOpenScope(record.ScopeSession, 0))
	}
	go l.run()
	c.t.Cleanup(func() { l.halt() })
	return l
}

func (l *Load) send() error {
	r := record.NewData(record.SubtypeAudio)
	if l.keys > 0 {
		r.SourceID = uint32(1 + l.next%l.keys)
	}
	r.SetFloat64s([]float64{float64(l.next)})
	if err := l.Consume(r); err != nil {
		return err
	}
	l.next++
	return nil
}

func (l *Load) run() {
	defer close(l.done)
	for l.err == nil {
		if l.clip > 0 {
			l.err = l.Consume(record.NewOpenScope(record.ScopeClip, 0))
		}
		for k := 0; k < max(l.clip, 1) && l.err == nil; k++ {
			l.err = l.send()
			time.Sleep(l.pace) // paces the sensor
		}
		if l.clip > 0 && l.err == nil {
			l.err = l.Consume(record.NewCloseScope(record.ScopeClip, 0))
		}
		select {
		case <-l.stop:
			return
		default:
		}
	}
}

// halt stops the pacing loop at a scope boundary; it is idempotent.
func (l *Load) halt() {
	select {
	case <-l.stop:
	default:
		close(l.stop)
	}
	<-l.done
}

// Stop stops the pacing loop at a scope boundary, flushes, and returns
// how many records were sent.
func (l *Load) Stop() int {
	l.t.Helper()
	l.halt()
	if l.err == nil {
		l.err = l.Flush()
	}
	if l.err != nil {
		l.t.Fatalf("load: %v", l.err)
	}
	return l.next
}

// Send sends n more numbered records after Stop.
func (l *Load) Send(n int) {
	l.t.Helper()
	for range n {
		if err := l.send(); err != nil {
			l.t.Fatalf("load: %v", err)
		}
	}
}

// End stops the load, closes its session scope and flushes; it returns
// how many records were sent.
func (l *Load) End() int {
	l.t.Helper()
	sent := l.Stop()
	if l.clip == 0 && !l.ended {
		l.ended = true
		if err := l.Consume(record.NewCloseScope(record.ScopeSession, 0)); err != nil {
			l.t.Fatalf("load: %v", err)
		}
	}
	if err := l.Flush(); err != nil {
		l.t.Fatalf("load: %v", err)
	}
	return sent
}
