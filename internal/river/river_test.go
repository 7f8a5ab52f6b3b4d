package river

import (
	"context"
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
)

func TestWireRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	wa, wb := newWire(a), newWire(b)
	want := &Message{
		Type:       TypeAssign,
		ID:         42,
		Seg:        "extract",
		SegType:    "extract",
		Downstream: "127.0.0.1:7103",
		Segments: []SegmentStatus{
			{Name: "extract", Type: "extract", Addr: "127.0.0.1:9000", Processed: 7, Emitted: 3, Conns: 1, BadCloses: 2},
		},
	}
	done := make(chan error, 1)
	go func() { done <- wa.send(want) }()
	got, err := wb.recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("send: %v", err)
	}
	if got.Type != want.Type || got.ID != want.ID || got.Seg != want.Seg ||
		got.Downstream != want.Downstream || len(got.Segments) != 1 ||
		got.Segments[0] != want.Segments[0] {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
}

func TestWireRejectsOversizeFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		// A hostile 512 MiB length prefix must be rejected before any
		// allocation of that size.
		_, _ = a.Write([]byte{0x20, 0x00, 0x00, 0x00})
		_, _ = a.Write([]byte{1, 2, 3, 4})
	}()
	if _, err := newWire(b).recv(); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestLeastLoadedPlacement(t *testing.T) {
	p := LeastLoaded{}
	if got := p.Pick(nil); got != "" {
		t.Fatalf("empty candidates: got %q", got)
	}
	got := p.Pick([]NodeLoad{{Name: "c", Segments: 2}, {Name: "a", Segments: 1}, {Name: "b", Segments: 1}})
	if got != "a" {
		t.Fatalf("least loaded with name tie-break: got %q want a", got)
	}
	got = p.Pick([]NodeLoad{{Name: "a", Segments: 3}, {Name: "b", Segments: 0}})
	if got != "b" {
		t.Fatalf("least loaded: got %q want b", got)
	}
}

func TestSpreadPlacement(t *testing.T) {
	p := &Spread{}
	// The rotation position derives from the candidates' placed-segment
	// counts, so consecutive placements rotate as the counts grow — and a
	// coordinator restarted with the same placements picks identically.
	cands := []NodeLoad{{Name: "b"}, {Name: "a"}}
	if got := p.Pick(cands); got != "a" {
		t.Fatalf("first pick: got %q want a", got)
	}
	if got := (&Spread{}).Pick(cands); got != "a" {
		t.Fatalf("fresh placer diverged: determinism must come from placements, not internal state")
	}
	cands[1].Segments = 1 // "a" now hosts the first segment
	if got := p.Pick(cands); got != "b" {
		t.Fatalf("second pick: got %q want b", got)
	}
	cands[0].Segments = 1 // "b" hosts the second
	if got := p.Pick(cands); got != "a" {
		t.Fatalf("third pick wraps: got %q want a", got)
	}
}

func TestSpreadSkipsNeighborHosts(t *testing.T) {
	p := Spread{}
	// Rotation would land on "a", but "a" hosts a neighbor of the segment
	// being placed; "b" is free and must be chosen instead.
	cands := []NodeLoad{
		{Name: "a", Segments: 1, HostsNeighbor: true},
		{Name: "b", Segments: 1},
	}
	if got := p.Pick(cands); got != "b" {
		t.Fatalf("neighbor host not skipped: got %q want b", got)
	}
	// With every candidate hosting a neighbor there is nothing to skip to:
	// fall back to the rotation slot rather than refusing to place.
	cands[1].HostsNeighbor = true
	if got := p.Pick(cands); got != "a" {
		t.Fatalf("all-neighbors fallback: got %q want a", got)
	}
}

func TestLoadAwarePlacement(t *testing.T) {
	p := LoadAware{}
	if got := p.Pick(nil); got != "" {
		t.Fatalf("empty candidates: got %q", got)
	}
	// An idle cluster (all queues empty) degrades to least-loaded.
	got := p.Pick([]NodeLoad{
		{Name: "b", Segments: 2},
		{Name: "a", Segments: 1},
	})
	if got != "a" {
		t.Fatalf("idle cluster: got %q want a", got)
	}
	// A saturated near-empty node must lose to a busier idle one: this is
	// the case where LeastLoaded picks wrong.
	cands := []NodeLoad{
		{Name: "starved", Segments: 1, QueueDepth: 256, QueueCap: 256, Lag: 9000},
		{Name: "roomy", Segments: 2},
	}
	if got := (LeastLoaded{}).Pick(cands); got != "starved" {
		t.Fatalf("premise broken: LeastLoaded picked %q", got)
	}
	if got := p.Pick(cands); got != "roomy" {
		t.Fatalf("saturation ignored: got %q want roomy", got)
	}
	// Lag weighting is off by default (processed−emitted conflates a
	// filtering segment's intentional reduction with backlog) but tips the
	// scale when explicitly enabled for record-for-record pipelines.
	cands = []NodeLoad{
		{Name: "lagging", Segments: 1, Lag: 20000},
		{Name: "fresh", Segments: 2},
	}
	if got := p.Pick(cands); got != "lagging" {
		t.Fatalf("default policy weighed lag: got %q want lagging", got)
	}
	if got := (LoadAware{LagWeight: 1.0 / 5000}).Pick(cands); got != "fresh" {
		t.Fatalf("explicit lag weight ignored: got %q want fresh", got)
	}
}

// identityRegistry registers a segment type with no operators: records
// pass through unchanged, which keeps control-plane tests independent of
// the acoustic operator stack.
func identityRegistry() *pipeline.Registry {
	reg := pipeline.NewRegistry()
	reg.Register("ident", func() []pipeline.Operator { return nil })
	return reg
}

// collectSink counts data records and scope repairs arriving at a
// terminal StreamIn.
type collectSink struct {
	mu   sync.Mutex
	data int
	bad  int
}

func (c *collectSink) Name() string { return "collect" }

func (c *collectSink) Consume(r *record.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch r.Kind {
	case record.KindData:
		c.data++
	case record.KindBadCloseScope:
		c.bad++
	}
	return nil
}

func (c *collectSink) counts() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.data, c.bad
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestControlPlanePassthrough boots a coordinator and one agent, lets the
// coordinator place an identity segment, and checks records flow from the
// entry address through the agent-hosted segment to the sink.
func TestControlPlanePassthrough(t *testing.T) {
	sinkIn, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := pipeline.New().SetSource(sinkIn).SetSink(sink)
		_ = p.Run(context.Background())
	}()

	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "ident", Type: "ident"}},
			SinkAddr: sinkIn.Addr(),
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		// Generous timeout so loaded CI machines cannot fake a death.
		HeartbeatTimeout: 2 * time.Second,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	agent := NewAgent("node-a", coord.Addr(), identityRegistry())
	agent.Logf = t.Logf
	actx, acancel := context.WithCancel(context.Background())
	agentDone := make(chan error, 1)
	go func() { agentDone <- agent.Run(actx) }()

	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := coord.WaitPlaced(wctx); err != nil {
		t.Fatal(err)
	}
	entry := coord.EntryAddr()
	if entry == "" {
		t.Fatal("placed but no entry address")
	}
	st := coord.Status()
	if len(st.Placements) != 1 || !st.Placements[0].Placed || st.Placements[0].Node != "node-a" {
		t.Fatalf("unexpected placements: %+v", st.Placements)
	}

	out := pipeline.NewStreamOut(entry)
	const n = 25
	for i := 0; i < n; i++ {
		r := record.NewData(record.SubtypeAudio)
		r.Seq = uint64(i)
		r.SetFloat64s([]float64{float64(i)})
		if err := out.Consume(r); err != nil {
			t.Fatalf("consume %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, "records at sink", func() bool {
		d, _ := sink.counts()
		return d == n
	})

	// Heartbeats must carry the hosted segment's counters.
	waitFor(t, 5*time.Second, "heartbeat stats", func() bool {
		st := coord.Status()
		return len(st.Nodes) == 1 && len(st.Nodes[0].Segments) == 1 &&
			st.Nodes[0].Segments[0].Processed >= n
	})

	_ = out.Close()
	acancel()
	<-agentDone
	_ = sinkIn.Close()
	wg.Wait()
}

// fakeAgent speaks the control protocol by hand so coordinator tests can
// control heartbeat behavior precisely.
type fakeAgent struct {
	t      *testing.T
	w      *wire
	addr   string // address acked to assigns
	hbStop chan struct{}
	hbOnce sync.Once
	done   chan struct{}
	// dropRedirects swallows that many redirect requests (no ack), making
	// the coordinator's RPC time out; redirectsAcked counts the ones that
	// got through.
	dropRedirects  atomic.Int32
	redirectsAcked atomic.Int32
	// assignsAcked counts the assign requests this agent acknowledged.
	assignsAcked atomic.Int32
	// statsMu/stats is the segment telemetry carried in heartbeats, so
	// tests can feed the coordinator precise load pictures.
	statsMu sync.Mutex
	stats   []SegmentStatus
}

// setStats installs the segment telemetry future heartbeats report.
func (f *fakeAgent) setStats(stats []SegmentStatus) {
	f.statsMu.Lock()
	f.stats = stats
	f.statsMu.Unlock()
}

func (f *fakeAgent) getStats() []SegmentStatus {
	f.statsMu.Lock()
	defer f.statsMu.Unlock()
	return append([]SegmentStatus(nil), f.stats...)
}

func newFakeAgent(t *testing.T, coordAddr, name, segAddr string) *fakeAgent {
	return newFakeAgentInv(t, coordAddr, name, segAddr, nil)
}

// newFakeAgentInv registers like an agent carrying a hosted-unit
// inventory, so tests can replay the reconnect-and-adopt handshake by
// hand.
func newFakeAgentInv(t *testing.T, coordAddr, name, segAddr string, inv []UnitInventory) *fakeAgent {
	t.Helper()
	conn, err := net.Dial("tcp", coordAddr)
	if err != nil {
		t.Fatalf("fake %s: dial: %v", name, err)
	}
	f := &fakeAgent{t: t, w: newWire(conn), addr: segAddr,
		hbStop: make(chan struct{}), done: make(chan struct{})}
	reg := &Message{Type: TypeRegister, Node: name, Ver: ProtocolVersion}
	if inv != nil {
		reg.Inventory = inv
	}
	if err := f.w.send(reg); err != nil {
		t.Fatalf("fake %s: register: %v", name, err)
	}
	ack, err := f.w.recv()
	if err != nil || ack.Type != TypeAck || ack.Err != "" {
		t.Fatalf("fake %s: register ack %+v err %v", name, ack, err)
	}
	// Command loop: ack every request with the fake segment address.
	go func() {
		defer close(f.done)
		for {
			msg, err := f.w.recv()
			if err != nil {
				return
			}
			switch msg.Type {
			case TypeAssign:
				f.assignsAcked.Add(1)
				_ = f.w.send(&Message{Type: TypeAck, ID: msg.ID, Addr: f.addr})
			case TypeRedirect:
				if f.dropRedirects.Add(-1) >= 0 {
					continue // swallowed: the RPC times out
				}
				f.redirectsAcked.Add(1)
				_ = f.w.send(&Message{Type: TypeAck, ID: msg.ID})
			case TypeStop:
				_ = f.w.send(&Message{Type: TypeAck, ID: msg.ID})
			}
		}
	}()
	// Heartbeat loop until stopHeartbeats.
	go func() {
		tk := time.NewTicker(20 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-f.hbStop:
				return
			case <-tk.C:
				if err := f.w.send(&Message{Type: TypeHeartbeat, Segments: f.getStats()}); err != nil {
					return
				}
			}
		}
	}()
	return f
}

// stopHeartbeats silences the node while keeping its control connection
// open — the "hung host" failure mode only heartbeat expiry can catch.
func (f *fakeAgent) stopHeartbeats() { f.hbOnce.Do(func() { close(f.hbStop) }) }

func (f *fakeAgent) close() {
	f.stopHeartbeats()
	_ = f.w.close()
}

// TestCoordinatorHeartbeatTimeout verifies the missed-heartbeat death
// path: a node that goes silent without dropping its connection is
// declared dead after HeartbeatTimeout and its segment is re-placed on a
// surviving node, updating the entry address and notifying watchers.
func TestCoordinatorHeartbeatTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "seg", Type: "t"}},
			SinkAddr: "127.0.0.1:9",
		}},
		HeartbeatInterval: 40 * time.Millisecond,
		HeartbeatTimeout:  timeout,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Watcher sees every entry address the pipeline moves through.
	var wmu sync.Mutex
	var entries []string
	watchCtx, watchCancel := context.WithCancel(context.Background())
	defer watchCancel()
	watchDone := make(chan error, 1)
	go func() {
		watchDone <- WatchEntry(watchCtx, coord.Addr(), func(a string) {
			wmu.Lock()
			entries = append(entries, a)
			wmu.Unlock()
		})
	}()

	// a-silent registers first and wins the initial placement
	// (alphabetical tie-break).
	silent := newFakeAgent(t, coord.Addr(), "a-silent", "127.0.0.1:19001")
	defer silent.close()
	waitFor(t, 5*time.Second, "initial placement", func() bool {
		st := coord.Status()
		return st.Placements[0].Node == "a-silent"
	})
	healthy := newFakeAgent(t, coord.Addr(), "b-healthy", "127.0.0.1:19002")
	defer healthy.close()
	waitFor(t, 5*time.Second, "second node registered", func() bool {
		return len(coord.Status().Nodes) == 2
	})

	silent.stopHeartbeats()
	start := time.Now()
	waitFor(t, 5*time.Second, "failover to b-healthy", func() bool {
		st := coord.Status()
		return st.Placements[0].Node == "b-healthy"
	})
	elapsed := time.Since(start)
	if elapsed < timeout/2 {
		t.Fatalf("failover after %v: faster than heartbeat expiry allows, detection is not heartbeat-driven", elapsed)
	}
	if elapsed > timeout+2*time.Second {
		t.Fatalf("failover took %v, far beyond the heartbeat timeout", elapsed)
	}
	st := coord.Status()
	if len(st.Nodes) != 1 || st.Nodes[0].Name != "b-healthy" {
		t.Fatalf("dead node still listed: %+v", st.Nodes)
	}
	if st.EntryAddr != "127.0.0.1:19002" {
		t.Fatalf("entry addr = %q, want the re-placed segment's address", st.EntryAddr)
	}
	waitFor(t, 5*time.Second, "watcher saw both entry addresses", func() bool {
		wmu.Lock()
		defer wmu.Unlock()
		return len(entries) >= 2 &&
			entries[0] == "127.0.0.1:19001" &&
			entries[len(entries)-1] == "127.0.0.1:19002"
	})
	watchCancel()
	if err := <-watchDone; err != nil {
		t.Fatalf("watch: %v", err)
	}
}

// TestDuplicateRegisterRejected ensures a second agent with a taken name
// is refused instead of hijacking the session.
func TestDuplicateRegisterRejected(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "seg", Type: "t"}},
			SinkAddr: "127.0.0.1:9",
		}},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	first := newFakeAgent(t, coord.Addr(), "dup", "127.0.0.1:19001")
	defer first.close()

	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := newWire(conn)
	if err := w.send(&Message{Type: TypeRegister, Node: "dup", Ver: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	ack, err := w.recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := ackErr(ack); err == nil || errors.Is(err, ErrProtocolMismatch) {
		t.Fatalf("duplicate registration: %v, want a (retryable) name refusal", err)
	}
}

func TestCoordinatorRejectsBadSpecs(t *testing.T) {
	cases := []PipelineSpec{
		{},
		{SinkAddr: "127.0.0.1:9"},
		{Segments: []SegmentSpec{{Name: "a", Type: "t"}}},
		{Segments: []SegmentSpec{{Name: "", Type: "t"}}, SinkAddr: "127.0.0.1:9"},
		{Segments: []SegmentSpec{{Name: "a", Type: "t"}, {Name: "a", Type: "t"}}, SinkAddr: "127.0.0.1:9"},
	}
	for i, spec := range cases {
		if c, err := NewCoordinator(Config{Pipelines: []PipelineSpec{spec}}); err == nil {
			c.Close()
			t.Errorf("case %d: invalid spec %+v accepted", i, spec)
		}
	}
}

func TestFetchStatus(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "seg", Type: "t"}},
			SinkAddr: "127.0.0.1:9",
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st, err := FetchStatus(coord.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.SinkAddr != "127.0.0.1:9" || len(st.Placements) != 1 || st.Placements[0].Placed {
		t.Fatalf("unexpected status: %+v", st)
	}
	if _, err := FetchStatus("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("status against dead address succeeded")
	}
}

// TestTwoSegmentChainRedirect places a two-segment chain, kills the node
// hosting the downstream segment, and verifies the coordinator both
// re-places it and redirects the surviving upstream segment at the new
// address — the mid-chain splice, where the upstream neighbor is a hosted
// segment rather than the source.
func TestTwoSegmentChainRedirect(t *testing.T) {
	sinkIn, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = pipeline.New().SetSource(sinkIn).SetSink(sink).Run(context.Background())
	}()

	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "first", Type: "ident"}, {Name: "second", Type: "ident"}},
			SinkAddr: sinkIn.Addr(),
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		// Spread plus the bootstrap gate puts the two segments on
		// different nodes: nothing places until all three agents have
		// registered.
		Placer:   &Spread{},
		MinNodes: 3,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	type liveAgent struct {
		agent  *Agent
		cancel context.CancelFunc
		done   chan error
	}
	start := func(name string) *liveAgent {
		a := NewAgent(name, coord.Addr(), identityRegistry())
		a.ListenHost = agentListenHost(t)
		a.Logf = t.Logf
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- a.Run(ctx) }()
		return &liveAgent{agent: a, cancel: cancel, done: done}
	}
	agents := map[string]*liveAgent{}
	for _, name := range []string{"node-a", "node-b", "node-c"} {
		agents[name] = start(name)
	}
	defer func() {
		for _, la := range agents {
			la.cancel()
			<-la.done
		}
	}()

	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := coord.WaitPlaced(wctx); err != nil {
		t.Fatal(err)
	}

	out := pipeline.NewStreamOut(coord.EntryAddr())
	defer out.Close()
	send := func(seq int) error {
		r := record.NewData(record.SubtypeAudio)
		r.Seq = uint64(seq)
		r.SetFloat64s([]float64{1})
		return out.Consume(r)
	}
	if err := send(0); err != nil {
		t.Fatalf("consume: %v", err)
	}
	waitFor(t, 5*time.Second, "first record through the chain", func() bool {
		d, _ := sink.counts()
		return d >= 1
	})

	st := coord.Status()
	var victim, upstreamNode string
	for _, p := range st.Placements {
		if p.Seg == "second" {
			victim = p.Node
		} else {
			upstreamNode = p.Node
		}
	}
	if victim == "" || victim == upstreamNode {
		t.Fatalf("spread placement failed: %+v", st.Placements)
	}
	agents[victim].cancel()
	<-agents[victim].done

	waitFor(t, 5*time.Second, "second re-placed off the dead node", func() bool {
		for _, p := range coord.Status().Placements {
			if p.Seg == "second" {
				return p.Placed && p.Node != victim
			}
		}
		return false
	})
	// The surviving upstream segment must now forward to the new
	// instance: records sent to the unchanged entry address still reach
	// the sink.
	pre, _ := sink.counts()
	stop := make(chan struct{})
	var sendWG sync.WaitGroup
	sendWG.Add(1)
	go func() {
		defer sendWG.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := send(i); err != nil {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	waitFor(t, 10*time.Second, "records through the spliced chain", func() bool {
		d, _ := sink.counts()
		return d > pre
	})
	close(stop)
	sendWG.Wait()

	for name, la := range agents {
		if name == victim {
			continue
		}
		la.cancel()
		<-la.done
	}
	agents = map[string]*liveAgent{}
	_ = sinkIn.Close()
	wg.Wait()
}

// bombOp forwards records until it sees the value 666, then fails —
// simulating an operator crash that kills the hosted pipeline while the
// node itself stays healthy.
type bombOp struct{}

func (bombOp) Name() string { return "bomb" }

func (bombOp) Process(r *record.Record, out pipeline.Emitter) error {
	if v, err := r.Float64s(); err == nil && len(v) > 0 && v[0] == 666 {
		return errors.New("bomb triggered")
	}
	return out.Emit(r)
}

// TestSegmentFailureFailover covers the failure mode heartbeat expiry
// cannot see: the hosted segment's pipeline dies on an operator error
// while its node keeps beating. The heartbeat must report the instance as
// failed and the coordinator must re-place it.
func TestSegmentFailureFailover(t *testing.T) {
	sinkIn, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = pipeline.New().SetSource(sinkIn).SetSink(sink).Run(context.Background())
	}()

	reg := pipeline.NewRegistry()
	reg.Register("bomb", func() []pipeline.Operator { return []pipeline.Operator{bombOp{}} })
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "seg", Type: "bomb"}},
			SinkAddr: sinkIn.Addr(),
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	type liveAgent struct {
		cancel context.CancelFunc
		done   chan error
	}
	agents := make(map[string]*liveAgent)
	for _, name := range []string{"node-a", "node-b"} {
		a := NewAgent(name, coord.Addr(), reg)
		a.ListenHost = agentListenHost(t)
		a.Logf = t.Logf
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- a.Run(ctx) }()
		agents[name] = &liveAgent{cancel: cancel, done: done}
	}
	defer func() {
		for _, la := range agents {
			la.cancel()
			<-la.done
		}
	}()

	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := coord.WaitPlaced(wctx); err != nil {
		t.Fatal(err)
	}
	firstAddr := coord.Status().Placements[0].Addr

	send := func(addr string, val float64) error {
		out := pipeline.NewStreamOut(addr)
		defer out.Close()
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s([]float64{val})
		return out.Consume(r)
	}
	if err := send(firstAddr, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "healthy record at sink", func() bool {
		d, _ := sink.counts()
		return d >= 1
	})

	// Detonate the operator: the hosted pipeline dies, the node survives.
	if err := send(firstAddr, 666); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "failed segment re-placed at a new address", func() bool {
		p := coord.Status().Placements[0]
		return p.Placed && p.Addr != firstAddr
	})
	// Both nodes must still be registered: this was a segment death, not
	// a node death.
	if st := coord.Status(); len(st.Nodes) != 2 {
		t.Fatalf("expected both nodes alive after segment failure, got %+v", st.Nodes)
	}

	// The re-placed instance carries traffic again.
	if err := send(coord.Status().Placements[0].Addr, 2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "record through the re-placed segment", func() bool {
		d, _ := sink.counts()
		return d >= 2
	})

	for _, la := range agents {
		la.cancel()
		<-la.done
	}
	agents = map[string]*liveAgent{}
	_ = sinkIn.Close()
	wg.Wait()
}

// TestLoadAwareFailoverAvoidsSaturatedNode is the backpressure-aware
// placement acceptance scenario: a failed segment must be re-placed onto
// the least-saturated of two survivors, in a cluster where LeastLoaded
// would have picked the saturated one.
//
// Topology: four segments over three nodes. Bootstrap placement (no
// telemetry yet, LoadAware degrades to least-loaded) puts two segments on
// n1 and one each on n2 and n3. n2 then heartbeats a saturated emit queue
// and heavy lag while n1 reports idle telemetry; when n3 dies, its segment
// must land on n1 — more populated but idle — not on n2, which hosts
// fewer segments and is what segment-count placement would choose.
func TestLoadAwareFailoverAvoidsSaturatedNode(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{
				{Name: "sa", Type: "t"}, {Name: "sb", Type: "t"},
				{Name: "sc", Type: "t"}, {Name: "sd", Type: "t"},
			},
			SinkAddr: "127.0.0.1:9",
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
		Placer:            LoadAware{},
		MinNodes:          3,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	n1 := newFakeAgent(t, coord.Addr(), "n1", "127.0.0.1:19001")
	defer n1.close()
	n2 := newFakeAgent(t, coord.Addr(), "n2", "127.0.0.1:19002")
	defer n2.close()
	n3 := newFakeAgent(t, coord.Addr(), "n3", "127.0.0.1:19003")
	defer n3.close()

	waitFor(t, 5*time.Second, "bootstrap placement", func() bool {
		placed := 0
		for _, p := range coord.Status().Placements {
			if p.Placed {
				placed++
			}
		}
		return placed == 4
	})
	byNode := func() map[string][]string {
		out := map[string][]string{}
		for _, p := range coord.Status().Placements {
			if p.Placed {
				out[p.Node] = append(out[p.Node], p.Seg)
			}
		}
		return out
	}
	initial := byNode()
	if len(initial["n1"]) != 2 || len(initial["n2"]) != 1 || len(initial["n3"]) != 1 {
		t.Fatalf("unexpected bootstrap spread: %v", initial)
	}
	victimSeg := initial["n3"][0]

	// n2 drowns: a nearly full emit queue. n1 reports healthy telemetry
	// for both its segments.
	n2.setStats([]SegmentStatus{{
		Name: initial["n2"][0], Addr: "127.0.0.1:19002",
		Processed: 60000, Emitted: 10000,
		QueueDepth: 250, QueueCap: 256,
	}})
	idle := make([]SegmentStatus, 0, 2)
	for _, seg := range initial["n1"] {
		idle = append(idle, SegmentStatus{
			Name: seg, Addr: "127.0.0.1:19001",
			Processed: 60000, Emitted: 60000, QueueDepth: 0, QueueCap: 256,
		})
	}
	n1.setStats(idle)
	// Wait until the coordinator has folded in the saturated heartbeat.
	waitFor(t, 5*time.Second, "telemetry visible to the coordinator", func() bool {
		for _, n := range coord.Status().Nodes {
			if n.Name == "n2" && len(n.Segments) == 1 && n.Segments[0].QueueDepth == 250 {
				return true
			}
		}
		return false
	})

	// Sanity: segment-count placement would pick the saturated node.
	if got := (LeastLoaded{}).Pick([]NodeLoad{
		{Name: "n1", Segments: 2},
		{Name: "n2", Segments: 1, QueueDepth: 250, QueueCap: 256, Lag: 50000},
	}); got != "n2" {
		t.Fatalf("premise broken: LeastLoaded picked %q", got)
	}

	n3.close()
	waitFor(t, 10*time.Second, "victim segment re-placed", func() bool {
		for _, p := range coord.Status().Placements {
			if p.Seg == victimSeg {
				return p.Placed && p.Node != "n3"
			}
		}
		return false
	})
	for _, p := range coord.Status().Placements {
		if p.Seg == victimSeg && p.Node != "n1" {
			t.Fatalf("failed segment landed on %s; load-aware placement must avoid the saturated n2", p.Node)
		}
	}
}

// TestRedirectRetry verifies a failed upstream redirect is retried until
// it lands: after a mid-chain re-placement, the surviving upstream node
// swallows the first redirect RPC (timeout) and must receive another.
func TestRedirectRetry(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "first", Type: "t"}, {Name: "second", Type: "t"}},
			SinkAddr: "127.0.0.1:9",
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond, // reconcile ticks every 100ms
		RPCTimeout:        100 * time.Millisecond,
		Placer:            &Spread{},
		MinNodes:          2,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Spread + reverse placement order: "second" lands on a-down,
	// "first" on b-up.
	down := newFakeAgent(t, coord.Addr(), "a-down", "127.0.0.1:19001")
	defer down.close()
	up := newFakeAgent(t, coord.Addr(), "b-up", "127.0.0.1:19002")
	defer up.close()
	waitFor(t, 5*time.Second, "initial placement", func() bool {
		st := coord.Status()
		placed := 0
		for _, p := range st.Placements {
			if p.Placed {
				placed++
			}
		}
		return placed == 2
	})
	st := coord.Status()
	byName := map[string]string{}
	for _, p := range st.Placements {
		byName[p.Seg] = p.Node
	}
	if byName["second"] != "a-down" || byName["first"] != "b-up" {
		t.Fatalf("unexpected spread placement: %+v", st.Placements)
	}

	// The upstream node will swallow the first redirect after failover.
	up.dropRedirects.Store(1)
	down.close() // kill the downstream holder

	waitFor(t, 10*time.Second, "redirect retried until acked", func() bool {
		return up.redirectsAcked.Load() >= 1
	})
	// And the placement reflects the re-placed segment on the survivor.
	for _, p := range coord.Status().Placements {
		if p.Seg == "second" && (!p.Placed || p.Node != "b-up") {
			t.Fatalf("second not re-placed on survivor: %+v", p)
		}
	}
}

// TestPlacerTieBreaking pins down every placer's behavior on the
// degenerate candidate sets: empty (no node may be invented) and fully
// equal (the name tie-break must make the choice deterministic).
func TestPlacerTieBreaking(t *testing.T) {
	placers := map[string]Placer{
		"least-loaded": LeastLoaded{},
		"spread":       Spread{},
		"load-aware":   LoadAware{},
	}
	equal := []NodeLoad{
		{Name: "n2", Segments: 1, QueueDepth: 10, QueueCap: 100},
		{Name: "n1", Segments: 1, QueueDepth: 10, QueueCap: 100},
		{Name: "n3", Segments: 1, QueueDepth: 10, QueueCap: 100},
	}
	for name, p := range placers {
		if got := p.Pick(nil); got != "" {
			t.Errorf("%s: Pick(nil) = %q, want \"\"", name, got)
		}
		if got := p.Pick([]NodeLoad{}); got != "" {
			t.Errorf("%s: Pick(empty) = %q, want \"\"", name, got)
		}
		got := p.Pick(equal)
		if got == "" {
			t.Errorf("%s: refused to pick from equal candidates", name)
			continue
		}
		for i := 0; i < 5; i++ {
			if again := p.Pick(equal); again != got {
				t.Errorf("%s: equal candidates picked %q then %q; tie-break is not deterministic", name, got, again)
			}
		}
	}
	// Equal-set tie-breaks are by name for the score-based placers; Spread
	// rotates by total placed count (here 3 % 3 = position 0), which is
	// also n1.
	if got := (LeastLoaded{}).Pick(equal); got != "n1" {
		t.Errorf("LeastLoaded equal-set pick = %q, want n1", got)
	}
	if got := (LoadAware{}).Pick(equal); got != "n1" {
		t.Errorf("LoadAware equal-set pick = %q, want n1", got)
	}
	if got := (Spread{}).Pick(equal); got != "n1" {
		t.Errorf("Spread equal-set pick = %q, want n1", got)
	}
	// A single candidate is always chosen, even when it hosts a neighbor
	// or reports saturation — placing somewhere beats placing nowhere.
	lone := []NodeLoad{{Name: "only", Segments: 9, QueueDepth: 256, QueueCap: 256, HostsNeighbor: true}}
	for name, p := range placers {
		if got := p.Pick(lone); got != "only" {
			t.Errorf("%s: single-candidate pick = %q, want only", name, got)
		}
	}
}

// TestStatusDeterministicOrder feeds the coordinator heartbeats with
// deliberately unsorted segment stats from nodes registered in
// non-alphabetical order, and requires the snapshot to come back fully
// sorted — nodes and segments by name, placements in topology order — so
// status output is scriptable and diffable.
func TestStatusDeterministicOrder(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{
				{Name: "alpha", Type: "t"},
				{Name: "beta", Type: "t", Replicas: 2},
			},
			SinkAddr: "127.0.0.1:9",
		}},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	zeta := newFakeAgent(t, coord.Addr(), "zeta", "127.0.0.1:19001")
	defer zeta.close()
	apex := newFakeAgent(t, coord.Addr(), "apex", "127.0.0.1:19002")
	defer apex.close()
	zeta.setStats([]SegmentStatus{{Name: "zz"}, {Name: "aa"}, {Name: "mm"}})
	waitFor(t, 5*time.Second, "unsorted heartbeat folded in", func() bool {
		for _, n := range coord.Status().Nodes {
			if n.Name == "zeta" && len(n.Segments) == 3 {
				return true
			}
		}
		return false
	})

	st := coord.Status()
	if len(st.Nodes) != 2 || st.Nodes[0].Name != "apex" || st.Nodes[1].Name != "zeta" {
		t.Fatalf("nodes not sorted: %+v", st.Nodes)
	}
	var zetaSegs []string
	for _, s := range st.Nodes[1].Segments {
		zetaSegs = append(zetaSegs, s.Name)
	}
	if !sort.StringsAreSorted(zetaSegs) {
		t.Errorf("node segments not sorted: %v", zetaSegs)
	}
	// Placements follow the spec's topology order with replicated groups
	// expanded merge -> replicas -> split.
	wantUnits := []string{"alpha", "beta/merge", "beta/r1", "beta/r2", "beta/split"}
	if len(st.Placements) != len(wantUnits) {
		t.Fatalf("placements: %+v", st.Placements)
	}
	for i, want := range wantUnits {
		if st.Placements[i].Seg != want {
			t.Errorf("placement %d = %q, want %q", i, st.Placements[i].Seg, want)
		}
	}
	for _, p := range st.Placements {
		if p.Seg == "beta/split" && (p.Role != RoleSplit || p.Group != "beta") {
			t.Errorf("split unit missing role/group: %+v", p)
		}
	}
	// Two snapshots must be structurally identical (modulo heartbeat age).
	a, b := coord.Status(), coord.Status()
	for i := range a.Placements {
		if a.Placements[i] != b.Placements[i] {
			t.Errorf("placement %d unstable across snapshots", i)
		}
	}
}
