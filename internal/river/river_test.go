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

	"repro/internal/obs"
	"repro/internal/rivertest/eventwait"
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
	// Commands may arrive before the register ack (the coordinator
	// publishes a node before its ack is sent); like the agent, hold them
	// until the ack is in.
	var early []*Message
	for {
		msg, err := f.w.recv()
		if err != nil {
			t.Fatalf("fake %s: register ack: %v", name, err)
		}
		if msg.Type != TypeAck {
			early = append(early, msg)
			continue
		}
		if msg.Err != "" {
			t.Fatalf("fake %s: register rejected: %s", name, msg.Err)
		}
		break
	}
	// Command loop: ack every request with the fake segment address.
	go func() {
		defer close(f.done)
		for _, msg := range early {
			f.handle(msg)
		}
		for {
			msg, err := f.w.recv()
			if err != nil {
				return
			}
			f.handle(msg)
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

// handle acks one coordinator request.
func (f *fakeAgent) handle(msg *Message) {
	switch msg.Type {
	case TypeAssign:
		f.assignsAcked.Add(1)
		_ = f.w.send(&Message{Type: TypeAck, ID: msg.ID, Addr: f.addr})
	case TypeRedirect:
		if f.dropRedirects.Add(-1) >= 0 {
			return // swallowed: the RPC times out
		}
		f.redirectsAcked.Add(1)
		_ = f.w.send(&Message{Type: TypeAck, ID: msg.ID})
	case TypeStop:
		_ = f.w.send(&Message{Type: TypeAck, ID: msg.ID})
	}
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
		watchDone <- WatchPipelineEntry(watchCtx, coord.Addr(), "", func(a string, _ bool) {
			wmu.Lock()
			entries = append(entries, a)
			wmu.Unlock()
		})
	}()

	// a-silent registers first and wins the initial placement
	// (alphabetical tie-break).
	silent := newFakeAgent(t, coord.Addr(), "a-silent", "127.0.0.1:19001")
	defer silent.close()
	eventwait.For(t, coord.Events(), 0, "initial placement", eventwait.Is(obs.EventPlace, "seg", "a-silent"))
	healthy := newFakeAgent(t, coord.Addr(), "b-healthy", "127.0.0.1:19002")
	defer healthy.close()
	eventwait.For(t, coord.Events(), 0, "second node registered", eventwait.Is(obs.EventRegister, "", "b-healthy"))

	silent.stopHeartbeats()
	start := time.Now()
	eventwait.For(t, coord.Events(), 0, "failover to b-healthy", eventwait.Is(obs.EventReplace, "seg", "b-healthy"))
	eventwait.For(t, coord.Events(), 0, "entry moved to b-healthy", func(e obs.Event) bool {
		return e.Type == obs.EventEntry && e.Addr == "127.0.0.1:19002"
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
	eventwait.Until(t, "watcher saw both entry addresses", func() bool {
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

// TestEntryAnnouncedOnSameAddressReplace: a re-placed entry unit that
// comes back at its old host:port is still a move. Both nodes here
// advertise one address, so killing the entry's holder re-places the
// unit at the very same address; the coordinator must still send an
// entry event and tell the entry watchers of the move. (Sources already
// writing there reconnect by redialling on write failure, not because of
// this announcement: a Redirect to the current address is a no-op.)
func TestEntryAnnouncedOnSameAddressReplace(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "seg", Type: "t"}},
			SinkAddr: "127.0.0.1:9",
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var watched atomic.Int32
	watchCtx, watchCancel := context.WithCancel(context.Background())
	defer watchCancel()
	go func() {
		_ = WatchPipelineEntry(watchCtx, coord.Addr(), "", func(string, bool) { watched.Add(1) })
	}()
	holder := newFakeAgent(t, coord.Addr(), "a-holder", "127.0.0.1:19001")
	defer holder.close()
	first := eventwait.For(t, coord.Events(), 0, "initial entry", eventwait.Is(obs.EventEntry, "", ""))
	spare := newFakeAgent(t, coord.Addr(), "b-spare", "127.0.0.1:19001")
	defer spare.close()
	eventwait.For(t, coord.Events(), 0, "spare registered", eventwait.Is(obs.EventRegister, "", "b-spare"))
	eventwait.Until(t, "watcher saw the initial entry", func() bool { return watched.Load() == 1 })

	holder.close()
	re := eventwait.For(t, coord.Events(), first.Seq, "entry re-placed", eventwait.Is(obs.EventReplace, "seg", "b-spare"))
	if e := eventwait.For(t, coord.Events(), re.Seq, "entry event after the re-place", eventwait.Is(obs.EventEntry, "", "")); e.Addr != first.Addr {
		t.Fatalf("entry moved to %s, want the shared address %s", e.Addr, first.Addr)
	}
	eventwait.Until(t, "watcher told of the move", func() bool { return watched.Load() == 2 })
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

	// The entry is published once the whole chain is placed.
	eventwait.For(t, coord.Events(), 0, "bootstrap placement", eventwait.Is(obs.EventEntry, "", ""))
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
	eventwait.Until(t, "telemetry visible to the coordinator", func() bool {
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
	eventwait.For(t, coord.Events(), 0, "victim segment re-placed", eventwait.Is(obs.EventReplace, victimSeg, ""))
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
	eventwait.For(t, coord.Events(), 0, "initial placement", eventwait.Is(obs.EventEntry, "", ""))
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

	eventwait.For(t, coord.Events(), 0, "redirect retried until acked", eventwait.Is(obs.EventRedirect, "first", "b-up"))
	if up.dropRedirects.Load() >= 0 || up.redirectsAcked.Load() < 1 {
		t.Fatalf("redirect acked without a retry: %d dropped left, %d acked", up.dropRedirects.Load(), up.redirectsAcked.Load())
	}
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
	eventwait.Until(t, "unsorted heartbeat folded in", func() bool {
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

// TestDisconnectGrace covers the per-node disconnect grace refinement: a
// node whose control connection blips keeps its units (the reconnect
// re-registers with an inventory and adopts them back, no re-placement),
// while a node that never returns loses them once the grace expires.
func TestDisconnectGrace(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "seg", Type: "t"}},
			SinkAddr: "127.0.0.1:9",
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		DisconnectGrace:   600 * time.Millisecond,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// a-host wins the initial placement (registered first); b-spare is the
	// node a needless failover would land on.
	host := newFakeAgent(t, coord.Addr(), "a-host", "127.0.0.1:19001")
	defer host.close()
	eventwait.For(t, coord.Events(), 0, "initial placement", eventwait.Is(obs.EventPlace, "seg", "a-host"))
	spare := newFakeAgent(t, coord.Addr(), "b-spare", "127.0.0.1:19002")
	defer spare.close()
	eventwait.For(t, coord.Events(), 0, "spare registered", eventwait.Is(obs.EventRegister, "", "b-spare"))

	// Blip: drop the control connection, then re-register within the
	// grace carrying the still-running unit's inventory.
	host.close()
	eventwait.Until(t, "host deregistered", func() bool {
		return len(coord.Status().Nodes) == 1
	})
	// The placement must survive the drop: still on a-host at its address.
	if p := coord.Status().Placements[0]; !p.Placed || p.Node != "a-host" || p.Addr != "127.0.0.1:19001" {
		t.Fatalf("disconnect grace did not hold the placement: %+v", p)
	}
	cur := eventwait.Cursor(coord.Events())
	host2 := newFakeAgentInv(t, coord.Addr(), "a-host", "127.0.0.1:19001", []UnitInventory{
		{Name: "seg", Type: "t", Addr: "127.0.0.1:19001", Downstream: "127.0.0.1:9"},
	})
	defer host2.close()
	eventwait.For(t, coord.Events(), cur, "host re-registered", eventwait.Is(obs.EventRegister, "", "a-host"))
	// Give a needless re-place every chance to happen, then rule it out.
	time.Sleep(700 * time.Millisecond) // outlasts the 600 ms disconnect grace
	if p := coord.Status().Placements[0]; !p.Placed || p.Node != "a-host" || p.Addr != "127.0.0.1:19001" {
		t.Fatalf("blipped node's unit moved despite reconnect-and-adopt: %+v", p)
	}
	if got := spare.assignsAcked.Load(); got != 0 {
		t.Fatalf("spare received %d assign(s); the blip must not trigger a move", got)
	}

	// True death: drop again and stay away. The grace expires and the
	// unit fails over to the spare.
	host2.close()
	eventwait.For(t, coord.Events(), 0, "unit re-placed after the grace expired", eventwait.Is(obs.EventReplace, "seg", "b-spare"))
}
