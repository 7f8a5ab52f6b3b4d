package pipeline

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
)

func testRegistry() *Registry {
	reg := NewRegistry()
	reg.Register("double", func() []Operator { return []Operator{doubler{}} })
	reg.Register("add5", func() []Operator { return []Operator{adder{c: 5}} })
	return reg
}

func TestRegistry(t *testing.T) {
	reg := testRegistry()
	ops, err := reg.Build("double")
	if err != nil || len(ops) != 1 {
		t.Fatalf("Build: %v, %d ops", err, len(ops))
	}
	if _, err := reg.Build("missing"); err == nil {
		t.Error("unknown type should error")
	}
	if _, err := reg.Build("add5"); err != nil {
		t.Errorf("Build(add5): %v", err)
	}
	// Factories must return fresh instances.
	ops2, _ := reg.Build("double")
	if &ops[0] == &ops2[0] {
		t.Error("factory returned shared slice")
	}
}

// startTerminal starts the final stage: a streamin feeding a collecting
// sink. Returns its address, the sink, and a wait function.
func startTerminal(t *testing.T, maxConns int) (string, *collectSink, func()) {
	t.Helper()
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.MaxConns = maxConns
	in.IdleTimeout = 5 * time.Second
	sink := &collectSink{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := New().SetSource(in).SetSink(sink)
		if err := p.Run(context.Background()); err != nil {
			t.Errorf("terminal: %v", err)
		}
	}()
	return in.Addr(), sink, wg.Wait
}

func TestNodeHostAndStop(t *testing.T) {
	reg := testRegistry()
	node := NewNode("host-a", reg)
	termAddr, sink, wait := startTerminal(t, 1)

	addr, err := node.Host("seg1", "double", "127.0.0.1:0", termAddr)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := node.Addr("seg1"); err != nil || got != addr {
		t.Errorf("Addr = %q, %v", got, err)
	}
	if hosted := node.Hosted(); len(hosted) != 1 || hosted[0] != "seg1" {
		t.Errorf("Hosted = %v", hosted)
	}
	if _, err := node.Segment("seg1"); err != nil {
		t.Errorf("Segment: %v", err)
	}

	// Feed records through the hosted segment.
	out := NewStreamOut(addr)
	for _, r := range scopedClipRecords(3, 4) {
		if err := out.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	out.Close()
	time.Sleep(50 * time.Millisecond) // let records propagate
	if err := node.Stop("seg1"); err != nil {
		t.Errorf("Stop: %v", err)
	}
	wait()

	vals := sink.values(t)
	if len(vals) != 2 || vals[0] != 6 || vals[1] != 8 {
		t.Errorf("terminal got %v, want [6 8]", vals)
	}
}

func TestNodeHostDuplicate(t *testing.T) {
	node := NewNode("a", testRegistry())
	termAddr, _, _ := startTerminal(t, 0)
	if _, err := node.Host("seg", "double", "127.0.0.1:0", termAddr); err != nil {
		t.Fatal(err)
	}
	defer node.StopAll()
	if _, err := node.Host("seg", "double", "127.0.0.1:0", termAddr); err == nil {
		t.Error("duplicate host should error")
	}
}

func TestNodeErrors(t *testing.T) {
	node := NewNode("a", testRegistry())
	if _, err := node.Host("seg", "nope", ":0", "x"); err == nil {
		t.Error("unknown segment type should error")
	}
	if err := node.Stop("ghost"); err == nil {
		t.Error("stopping unknown segment should error")
	}
	if _, err := node.Addr("ghost"); err == nil {
		t.Error("Addr of unknown segment should error")
	}
	if _, err := node.Segment("ghost"); err == nil {
		t.Error("Segment of unknown segment should error")
	}
}

func TestCoordinatorMoveSegment(t *testing.T) {
	reg := testRegistry()
	nodeA := NewNode("node-a", reg)
	nodeB := NewNode("node-b", reg)
	defer nodeA.StopAll()
	defer nodeB.StopAll()

	// Terminal accepts connections from instance A then instance B.
	termAddr, sink, wait := startTerminal(t, 2)

	addrA, err := nodeA.Host("ext", "add5", "127.0.0.1:0", termAddr)
	if err != nil {
		t.Fatal(err)
	}
	upstream := NewStreamOut(addrA)
	defer upstream.Close()

	// Phase 1: records through node A.
	for _, r := range scopedClipRecords(1) {
		if err := upstream.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)

	// Move the segment to node B mid-stream: host the new instance,
	// redirect the upstream to it first so new records flow there, then
	// stop the old instance, which drains whatever it had in flight.
	newAddr, err := nodeB.Host("ext", "add5", ":0", termAddr)
	if err != nil {
		t.Fatalf("host on B: %v", err)
	}
	upstream.Redirect(newAddr)
	if err := nodeA.Stop("ext"); err != nil {
		t.Fatalf("stop A: %v", err)
	}
	if newAddr == addrA {
		t.Error("move returned the old address")
	}
	if hosted := nodeB.Hosted(); len(hosted) != 1 {
		t.Errorf("node B hosts %v", hosted)
	}
	if hosted := nodeA.Hosted(); len(hosted) != 0 {
		t.Errorf("node A still hosts %v", hosted)
	}

	// Phase 2: records through node B.
	for _, r := range scopedClipRecords(10) {
		if err := upstream.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if err := nodeB.Stop("ext"); err != nil {
		t.Errorf("stop B: %v", err)
	}
	upstream.Close()
	wait()

	vals := sink.values(t)
	if len(vals) != 2 || vals[0] != 6 || vals[1] != 15 {
		t.Errorf("terminal got %v, want [6 15]", vals)
	}
	// The terminal stream must be scope-valid despite the move.
	tr := record.NewTracker()
	for _, r := range sink.recs {
		if err := tr.Observe(r); err != nil {
			t.Fatalf("scope structure after move: %v", err)
		}
	}
}

func TestMoveWhileMidScope(t *testing.T) {
	// Kill a segment's host while a scope is open; downstream must see a
	// structurally valid stream with a BadCloseScope repair.
	reg := testRegistry()
	nodeA := NewNode("node-a", reg)
	defer nodeA.StopAll()

	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.MaxConns = 1
	col := &emitCollector{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := in.Run(col); err != nil {
			t.Errorf("terminal: %v", err)
		}
	}()

	addrA, err := nodeA.Host("ext", "double", "127.0.0.1:0", in.Addr())
	if err != nil {
		t.Fatal(err)
	}
	upstream := NewStreamOut(addrA)
	defer upstream.Close()

	// Open a scope and send data but do not close the scope.
	open := record.NewOpenScope(record.ScopeClip, 0)
	if err := upstream.Consume(open); err != nil {
		t.Fatal(err)
	}
	data := record.NewData(record.SubtypeAudio)
	data.SetFloat64s([]float64{7})
	if err := upstream.Consume(data); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// Stop the hosting node mid-scope: its streamout to the terminal dies
	// with the clip scope open.
	if err := nodeA.Stop("ext"); err != nil {
		t.Errorf("Stop: %v", err)
	}
	<-done

	got := col.snapshot()
	tr := record.NewTracker()
	for i, r := range got {
		if err := tr.Observe(r); err != nil {
			t.Fatalf("record %d (%s): %v", i, r, err)
		}
	}
	if tr.Depth() != 0 {
		t.Errorf("stream left %d scopes open", tr.Depth())
	}
	var sawBadClose bool
	for _, r := range got {
		if r.Kind == record.KindBadCloseScope {
			sawBadClose = true
		}
	}
	if !sawBadClose {
		t.Error("expected a BadCloseScope repair record")
	}
}

// bomb forwards records until one carries the value 666, then fails.
type bomb struct{}

func (bomb) Name() string { return "bomb" }

func (bomb) Process(r *record.Record, out Emitter) error {
	if v, err := r.Float64s(); err == nil && len(v) > 0 && v[0] == 666 {
		return errors.New("bomb triggered")
	}
	return out.Emit(r)
}

// TestHostedOperatorFailureStopsUnit detonates an operator behind a
// queued pooled streamin and sends nothing more: the failure must not wait
// for the next record to surface. The unit reports itself failed with the
// operator's error and its listener closes.
func TestHostedOperatorFailureStopsUnit(t *testing.T) {
	reg := NewRegistry()
	reg.Register("bomb", func() []Operator { return []Operator{bomb{}} })
	node := NewNode("host-a", reg)
	defer node.StopAll()
	termAddr, _, _ := startTerminal(t, 0)
	addr, err := node.Host("seg", "bomb", "127.0.0.1:0", termAddr)
	if err != nil {
		t.Fatal(err)
	}
	up := NewStreamOut(addr)
	defer up.Close()
	for _, v := range []float64{1, 2, 666} {
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s([]float64{v})
		if err := up.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	// The upstream connection stays open and idle from here on.
	want := (&OperatorError{Op: "bomb", Err: errors.New("bomb triggered")}).Error()
	waitFor(t, time.Second, "unit reported failed", func() bool {
		st := node.Stats()
		return len(st) == 1 && st[0].Failed && st[0].Err == want
	})
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatalf("failed unit's listener %s still accepts connections", addr)
	}
}

// stopSink stands in for a hosted unit's streamout: once closed it
// refuses every record, as a closed streamout does, and it books every
// record it accepts after the test has marked Stop as begun.
type stopSink struct {
	mu       sync.Mutex
	stopping bool
	closed   bool
	late     []string
}

func (*stopSink) Name() string { return "stop" }

func (s *stopSink) Consume(r *record.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStopped
	}
	if s.stopping {
		s.late = append(s.late, r.Kind.String())
	}
	return nil
}

func (s *stopSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// repairingSource is a streamin whose Close returns only once the
// BadCloseScope repair for the scope its upstream left open has been
// emitted, or its Run has returned: the streamin's repair always wins the
// race with the rest of Stop, which in a real unit it only sometimes does.
type repairingSource struct {
	*StreamIn
	repaired, ran chan struct{}
	once          sync.Once
}

func (s *repairingSource) Run(out Emitter) error {
	defer close(s.ran)
	return s.StreamIn.Run(EmitterFunc(func(r *record.Record) error {
		bad := r.Kind == record.KindBadCloseScope
		err := out.Emit(r)
		if bad {
			s.once.Do(func() { close(s.repaired) })
		}
		return err
	}))
}

func (s *repairingSource) Close() error {
	err := s.StreamIn.Close()
	select {
	case <-s.repaired:
	case <-s.ran:
	case <-time.After(2 * time.Second):
	}
	return err
}

// TestStopSendsNothingOnceBegun: a unit stopped while its upstream holds
// a scope open sends nothing after Stop begins — not even the
// BadCloseScope its own streamin makes for the cut connection. A killed
// node sends nothing either; the unit downstream repairs the scope.
func TestStopSendsNothingOnceBegun(t *testing.T) {
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.Pooled = true
	in.QueueSize = DefaultQueueSize
	src := &repairingSource{StreamIn: in, repaired: make(chan struct{}), ran: make(chan struct{})}
	sink := &stopSink{}
	node := NewNode("host-a", NewRegistry())
	if err := node.HostUnit("unit", "", src, NewSegment("unit", Relay{}), sink); err != nil {
		t.Fatal(err)
	}
	up := NewStreamOut(in.Addr())
	defer up.Close()
	if err := up.Consume(record.NewOpenScope(record.ScopeSession, 0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the open scope through the unit", func() bool {
		st := node.Stats()
		return len(st) == 1 && st[0].Emitted == 1
	})
	sink.mu.Lock()
	sink.stopping = true
	sink.mu.Unlock()
	if err := node.Stop("unit"); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.late) > 0 {
		t.Errorf("the stopped unit sent %v after Stop began", sink.late)
	}
}
