package river

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// SegmentSpec names one segment of a desired pipeline and the registry
// type agents instantiate it from.
type SegmentSpec struct {
	Name string `json:"name"`
	Type string `json:"type"`
	// Replicas, when > 1, runs the segment as that many replica
	// instances behind a splitter/merger pair: the splitter tags the
	// stream with sequence numbers and fans it out to every replica, the
	// merger deduplicates the copies back to exactly-once output, so one
	// replica death loses zero records and repairs zero scopes
	// downstream. 0 and 1 mean an ordinary single instance. Replicated
	// segment types must be record-preserving and deterministic (e.g.
	// "relay") for the copies to deduplicate.
	Replicas int `json:"replicas,omitempty"`
	// Shards, when > 1, runs the segment data-parallel behind a
	// partitioner/collector pair: the partitioner hashes
	// each record's stream identity to one of K shard instances and the
	// collector restores the original order, so a CPU-bound segment
	// scales with K instead of being capped by one core. Where replicas
	// are N identical copies for fault tolerance, shards split the work.
	// Shards is the boot K; the autoscaler (Config.Autoscale) may grow
	// and shrink the live K within its bounds at runtime. Sharded types
	// must be record-preserving; exclusive with Replicas > 1.
	Shards int `json:"shards,omitempty"`
}

// PipelineSpec is one desired topology the coordinator maintains: an
// ordered chain of segments (upstream first) that ultimately forwards to
// a fixed sink address outside the control plane's care. ID names the
// pipeline in the registry; the empty ID is the default pipeline — what
// a single-pipeline deployment (coord -segments … -sink …) runs, and what
// clients that name no pipeline address.
type PipelineSpec struct {
	ID       string        `json:"id,omitempty"`
	Segments []SegmentSpec `json:"segments"`
	SinkAddr string        `json:"sink_addr"`
}

// maxGroupWidth caps a segment's Replicas and Shards and the
// autoscaler's MaxShards. Every replica or shard is a unit with its own
// table row, placement and leg connection, so a spec (or a damaged
// journal or snapshot) asking for millions would exhaust the
// coordinator's memory expanding them long before any node pool could
// host them.
const maxGroupWidth = 256

// validate checks one pipeline spec in isolation.
func (p PipelineSpec) validate() error {
	if strings.ContainsAny(p.ID, ":/ \t\n") {
		return fmt.Errorf("river: pipeline ID %q: ':', '/' and whitespace are reserved", p.ID)
	}
	if len(p.Segments) == 0 {
		return fmt.Errorf("river: pipeline %q needs at least one segment", p.ID)
	}
	if p.SinkAddr == "" {
		return fmt.Errorf("river: pipeline %q needs a sink address", p.ID)
	}
	seen := make(map[string]bool, len(p.Segments))
	for _, sp := range p.Segments {
		if sp.Name == "" || sp.Type == "" {
			return fmt.Errorf("river: segment spec %+v needs a name and a type", sp)
		}
		if strings.ContainsAny(sp.Name, "/:") {
			return fmt.Errorf("river: segment name %q: '/' and ':' are reserved for unit scoping", sp.Name)
		}
		if sp.Replicas < 0 {
			return fmt.Errorf("river: segment %q: negative replica count", sp.Name)
		}
		if sp.Shards < 0 {
			return fmt.Errorf("river: segment %q: negative shard count", sp.Name)
		}
		if sp.Replicas > maxGroupWidth || sp.Shards > maxGroupWidth {
			return fmt.Errorf("river: segment %q: %d replicas, %d shards; at most %d of either",
				sp.Name, sp.Replicas, sp.Shards, maxGroupWidth)
		}
		if sp.Shards > 1 && sp.Replicas > 1 {
			return fmt.Errorf("river: segment %q: sharding and replication of one segment are exclusive", sp.Name)
		}
		if seen[sp.Name] {
			return fmt.Errorf("river: duplicate segment name %q", sp.Name)
		}
		seen[sp.Name] = true
	}
	return nil
}

// Config parameterizes a Coordinator.
type Config struct {
	// ListenAddr is the control listen address ("127.0.0.1:0" default).
	ListenAddr string
	// Pipelines is the boot set of pipelines to maintain, each with a
	// unique ID. Placement is global — every pipeline's units share the
	// node pool and the Placer — while reconciliation, drains, failover
	// and entry watches operate per pipeline. More pipelines can be added
	// (and removed) at runtime via AddPipeline/RemovePipeline or the
	// protocol's pipeline_add/pipeline_remove verbs.
	Pipelines []PipelineSpec
	// HeartbeatInterval is the cadence agents are told to beat at
	// (default 250ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a node dead after this much heartbeat
	// silence (default 4x HeartbeatInterval).
	HeartbeatTimeout time.Duration
	// RPCTimeout bounds an assign/redirect round trip (default 5s).
	RPCTimeout time.Duration
	// DrainSettle is how long a planned drain lets the old instance
	// finish emitting its tail after the stream has been spliced away,
	// before stopping it (default 250ms).
	DrainSettle time.Duration
	// Placer chooses hosts for segments (default LeastLoaded). One
	// placer serves every pipeline, so a load-aware policy spreads many
	// pipelines' segments across the shared cluster.
	Placer Placer
	// MinNodes delays the initial placement until at least this many
	// nodes have registered (default 1), so a cold-starting cluster does
	// not pile the whole pipeline onto whichever node connects first. It
	// gates only bootstrap: once the cluster has reached MinNodes,
	// failover re-placement proceeds with however many nodes survive.
	MinNodes int
	// OnEntryChange, when set, is invoked after the default pipeline's
	// entry address changes — the hook an in-process source uses to
	// Redirect its streamout. Called from coordinator goroutines; keep it
	// brief. Stations of named pipelines follow entries over the watch
	// protocol instead (WatchPipelineEntry).
	OnEntryChange func(addr string)
	// StateDir, when set, makes the coordinator durable: every placement
	// mutation — and every runtime pipeline add/remove — is journaled
	// there (append-only JSON log, compacted into a periodic snapshot),
	// and a coordinator restarted over the same directory reloads the
	// full pipeline set, advances its epoch, and reconciles
	// re-registering agents' hosted-unit inventories against the reloaded
	// desired state instead of re-placing a data plane that never stopped.
	StateDir string
	// RestartGrace is how long a restarted coordinator waits for the
	// agents named by its reloaded placements to re-register and be
	// adopted before declaring their units lost and re-placing them
	// (default 5s; only meaningful with StateDir). It must comfortably
	// cover the agents' reconnect backoff.
	RestartGrace time.Duration
	// DisconnectGrace, when positive, defers re-placement after a node's
	// control connection drops (or its heartbeats lapse): for that long
	// its units are presumed to still be running detached, so a blipped
	// agent's reconnect-and-adopt wins over a needless move. With the
	// default 0 a dropped control connection is node death, and failover
	// begins immediately. True node death under a grace costs that much
	// extra failover latency.
	DisconnectGrace time.Duration
	// MetricsAddr, when set, serves the observability endpoint there:
	// Prometheus-text /metrics (per-node and per-pipeline gauges from
	// heartbeat aggregation plus coordinator internals) and net/http/pprof.
	// Empty disables the endpoint; the in-process registry and event log
	// run either way.
	MetricsAddr string
	// Monitor parameterizes the self-monitoring anomaly detector loop;
	// the zero value enables it with defaults (see MonitorConfig).
	Monitor MonitorConfig
	// Remediate parameterizes the anomaly-driven remediation policy; the
	// zero value observes without acting (see RemediateConfig).
	Remediate RemediateConfig
	// Autoscale parameterizes the shard autoscaler, which grows and
	// shrinks sharded segments' live K against heartbeat saturation
	// telemetry; the zero value leaves it off (see AutoscaleConfig).
	Autoscale AutoscaleConfig
	// Logf, when set, receives control-plane event logs.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 250 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 4 * c.HeartbeatInterval
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 5 * time.Second
	}
	if c.DrainSettle <= 0 {
		c.DrainSettle = 250 * time.Millisecond
	}
	if c.Placer == nil {
		c.Placer = LeastLoaded{}
	}
	if c.MinNodes < 1 {
		c.MinNodes = 1
	}
	if c.RestartGrace <= 0 {
		c.RestartGrace = 5 * time.Second
	}
	return c
}

// member is one registered node agent.
type member struct {
	name     string
	w        *wire
	lastBeat time.Time
	stats    []SegmentStatus
	// marks tracks per-unit loss-counter baselines (keyed by unit name)
	// so heartbeat deltas become leg_drop / gap_skip events.
	marks map[string]counterMark
	// pending maps request IDs to reply channels; nil once the member is
	// dead (its channels are closed to fail in-flight RPCs).
	pending map[uint64]chan *Message
	gone    bool
}

// counterMark is the last observed value of one unit's loss counters,
// with the instance address that reported them: a new address means a new
// instance whose counters restart, so the baseline resets without an
// event.
type counterMark struct {
	addr     string
	legDrops uint64
	skipped  uint64
	alerts   uint64
	corrupt  uint64
}

// Coordinator owns a registry of desired pipeline topologies and drives
// registered node agents to realize them. It is started by NewCoordinator
// and stopped by Close. The topology tables live in a state (see
// state.go) whose mutations are journaled when Config.StateDir is set,
// making the coordinator restartable without disturbing the data plane.
type Coordinator struct {
	cfg    Config
	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	kick   chan struct{}
	closed sync.Once

	// graceUntil, when in the future, marks the restart grace window: the
	// reloaded placements name agents that have not re-registered yet,
	// and until the window closes their units are presumed to still be
	// running detached rather than lost. Immutable after NewCoordinator.
	graceUntil time.Time

	// drainMu serializes planned drains so two operators cannot move the
	// same stretch of the chain concurrently.
	drainMu sync.Mutex

	mu    sync.Mutex
	st    *state // topology tables + journaling commit hooks
	nodes map[string]*member
	// disconnected maps a dropped node to the deadline its units stay
	// presumed-alive awaiting a reconnect-and-adopt (Config.DisconnectGrace).
	disconnected map[string]time.Time
	// watchers maps an entry-watch subscription to its fan-out state:
	// each watcher has a dedicated sender goroutine fed through a
	// latest-wins cell, so entry broadcasts never serialize the control
	// plane (or each other) behind one slow watcher connection.
	watchers     map[*wire]*entryWatcher
	conns        map[net.Conn]struct{}
	nextID       uint64
	bootstrapped bool // cluster reached MinNodes at least once
	// pendingStops queues best-effort cleanup of dead segment instances.
	// The reconcile loop drains it before placing, so a stop can never
	// race a re-assign of the same segment name and kill the fresh
	// replacement.
	pendingStops []stopReq
	// evWatchers counts live watch_events followers (for the watch
	// fan-out gauge).
	evWatchers int

	// Observability (see observe.go / monitor.go). reg and events are
	// always live; the HTTP endpoint and its stop hook exist only when
	// Config.MetricsAddr is set.
	reg         *obs.Registry
	events      *obs.EventLog
	recDur      *obs.Histogram
	metricsAddr string
	metricsStop func() error
	// rem holds the remediation policy's guardrail state (see remediate.go).
	rem *remediator
	// as holds the shard autoscaler's guardrail state (see autoscale.go).
	as *autoscaler
	// drainsActive counts planned drains in flight, so the autoscaler can
	// suppress resizes while an operator is moving units around.
	drainsActive atomic.Int32
}

// stopReq names a segment instance to stop on a node.
type stopReq struct {
	node string
	seg  string
}

// entryWatcher is one entry-watch subscription: the pipeline it follows
// and the latest-wins handoff cell its sender goroutine drains. Entry
// updates are idempotent latest-state notifications, so a watcher that
// falls behind skips intermediate addresses instead of queueing them —
// the cell holds at most one pending update.
type entryWatcher struct {
	pipe string
	mu   sync.Mutex
	next *Message      // latest unsent update (nil = none)
	kick chan struct{} // cap 1: wakes the sender
	done chan struct{} // closed by dropWatcher
}

// offer replaces the pending update and wakes the sender.
func (ew *entryWatcher) offer(m *Message) {
	ew.mu.Lock()
	ew.next = m
	ew.mu.Unlock()
	select {
	case ew.kick <- struct{}{}:
	default:
	}
}

// take claims the pending update, or nil.
func (ew *entryWatcher) take() *Message {
	ew.mu.Lock()
	m := ew.next
	ew.next = nil
	ew.mu.Unlock()
	return m
}

// entryBoundaryWindow is how long an entry drain waits for watching
// sources to switch at a scope boundary before stopping the old entry
// instance; it matches the RedirectAtBoundary fallback sources use.
const entryBoundaryWindow = 5 * time.Second

// NewCoordinator validates cfg, binds the control listener and starts the
// coordinator's accept and reconcile loops.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Remediate.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Autoscale.validate(); err != nil {
		return nil, err
	}
	boot := cfg.Pipelines
	ids := make(map[string]bool, len(boot))
	for _, spec := range boot {
		if err := spec.validate(); err != nil {
			return nil, err
		}
		if ids[spec.ID] {
			return nil, fmt.Errorf("river: duplicate pipeline ID %q", spec.ID)
		}
		ids[spec.ID] = true
	}
	logf := func(format string, args ...any) {
		if cfg.Logf != nil {
			cfg.Logf("coordinator: "+format, args...)
		}
	}
	st, restored, err := newState(cfg.StateDir, boot, logf)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("river: coordinator listen %s: %w", cfg.ListenAddr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:          cfg,
		ln:           ln,
		ctx:          ctx,
		cancel:       cancel,
		kick:         make(chan struct{}, 1),
		st:           st,
		nodes:        make(map[string]*member),
		disconnected: make(map[string]time.Time),
		watchers:     make(map[*wire]*entryWatcher),
		conns:        make(map[net.Conn]struct{}),
		rem: &remediator{
			cfg:      cfg.Remediate.withDefaults(),
			lastTry:  make(map[string]time.Time),
			inflight: make(map[string]bool),
		},
		as: newAutoscaler(cfg.Autoscale.withDefaults()),
	}
	c.setupObs()
	if cfg.MetricsAddr != "" {
		bound, stop, err := obs.Serve(cfg.MetricsAddr, c.reg)
		if err != nil {
			cancel()
			_ = ln.Close()
			st.close()
			return nil, err
		}
		c.metricsAddr, c.metricsStop = bound, stop
		logf("observability endpoint on http://%s/metrics", bound)
	}
	if restored && st.hasPlacements() {
		// Prior placements survived on disk — and their instances survived
		// in memory on the (still-running) nodes. Open the grace window:
		// until it closes, units whose host has not re-registered are
		// presumed alive and are not re-placed, so a coordinator bounce
		// under streaming load repairs nothing. The cluster necessarily
		// bootstrapped before those placements were made, so MinNodes
		// must not gate post-grace re-placement.
		c.bootstrapped = true
		c.graceUntil = time.Now().Add(cfg.RestartGrace)
		logf("restarted as epoch %d with %d pipeline(s), %d reloaded placement(s); adopting agents for %s",
			st.epoch, len(st.order), len(placedNames(st)), cfg.RestartGrace)
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.reconcileLoop()
	if !cfg.Monitor.Disabled {
		c.wg.Add(1)
		go c.monitorLoop()
	}
	c.wg.Add(1)
	go c.remediateLoop()
	if c.as.cfg.Enabled {
		c.wg.Add(1)
		go c.autoscaleLoop()
	}
	return c, nil
}

// placedNames lists the units the state currently places, for logs.
func placedNames(st *state) []string {
	var out []string
	for name, p := range st.placements {
		if p.node != "" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// inGrace reports whether the restart grace window is still open.
func (c *Coordinator) inGrace() bool {
	return !c.graceUntil.IsZero() && time.Now().Before(c.graceUntil)
}

// Epoch returns the coordinator incarnation: 1 for a fresh coordinator,
// advancing by one on every restart from journaled state.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.epoch
}

// Addr returns the bound control listen address agents and clients dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// EntryAddr returns the default pipeline's entry address (the first
// pipeline's when no default exists), or "" while it is unplaced. Sources
// of named pipelines use PipelineEntryAddr.
func (c *Coordinator) EntryAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ps := c.defaultPipeline(); ps != nil {
		return ps.entryAddr
	}
	return ""
}

// defaultPipeline resolves the pipeline the single-pipeline API surfaces
// (EntryAddr, Status' top-level fields) refer to: the empty-ID pipeline,
// or the first by ID when every pipeline is named. Callers hold mu.
func (c *Coordinator) defaultPipeline() *pipelineState {
	if ps := c.st.pipelines[""]; ps != nil {
		return ps
	}
	if len(c.st.order) > 0 {
		return c.st.pipelines[c.st.order[0]]
	}
	return nil
}

// AddPipeline registers a new pipeline at runtime: its units are placed
// by the next reconcile passes onto the shared node pool, and the
// addition is journaled so a restarted coordinator reloads it.
func (c *Coordinator) AddPipeline(spec PipelineSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	c.mu.Lock()
	if _, dup := c.st.pipelines[spec.ID]; dup {
		c.mu.Unlock()
		return fmt.Errorf("river: pipeline %q already exists", spec.ID)
	}
	c.st.addPipeline(spec)
	c.mu.Unlock()
	c.event(obs.Event{Type: obs.EventPipelineAdd, Pipeline: spec.ID,
		Detail: fmt.Sprintf("%d segment(s)", len(spec.Segments))})
	c.logf("pipeline %q added (%d segment(s) -> sink %s)", spec.ID, len(spec.Segments), spec.SinkAddr)
	c.kickReconcile()
	return nil
}

// RemovePipeline deletes a pipeline at runtime: its placed units are
// stopped on their hosts, its watchers are disconnected, and the removal
// is journaled so a restarted coordinator does not resurrect it.
func (c *Coordinator) RemovePipeline(id string) error {
	c.mu.Lock()
	if _, ok := c.st.pipelines[id]; !ok {
		c.mu.Unlock()
		return fmt.Errorf("river: unknown pipeline %q", id)
	}
	boot := c.st.pipelines[id].boot
	placed := c.st.removePipeline(id)
	for _, p := range placed {
		c.pendingStops = append(c.pendingStops, stopReq{node: p.node, seg: p.u.name})
	}
	var ws []*wire
	var ews []*entryWatcher
	for w, ew := range c.watchers {
		if ew.pipe == id {
			ws = append(ws, w)
			ews = append(ews, ew)
			delete(c.watchers, w)
		}
	}
	c.mu.Unlock()
	for i, w := range ws {
		close(ews[i].done)
		_ = w.close()
	}
	c.event(obs.Event{Type: obs.EventPipelineRemove, Pipeline: id,
		Detail: fmt.Sprintf("%d unit(s) stopped", len(placed))})
	c.logf("pipeline %q removed; stopping %d unit(s)", id, len(placed))
	if boot && c.cfg.StateDir != "" {
		// The config is the operator's intent for the IDs it declares, so
		// this removal lasts only as long as this incarnation.
		c.logf("pipeline %q is config-declared: a restarted coordinator will re-add it unless the config drops it", id)
	}
	c.kickReconcile()
	return nil
}

// Close stops the coordinator: the listener and every control connection
// close and the background loops drain. Hosted segments on agents are left
// running (agents own their lifecycle).
func (c *Coordinator) Close() error {
	c.closed.Do(func() {
		c.cancel()
		_ = c.ln.Close()
		c.mu.Lock()
		for conn := range c.conns {
			_ = conn.Close()
		}
		c.mu.Unlock()
	})
	c.wg.Wait()
	if c.metricsStop != nil {
		_ = c.metricsStop()
	}
	c.mu.Lock()
	c.st.close()
	c.mu.Unlock()
	return nil
}

// WaitPlaced blocks until every unit of every pipeline is placed (and
// every entry address is known) or ctx expires.
func (c *Coordinator) WaitPlaced(ctx context.Context) error {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		if c.allPlaced() {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("river: waiting for placement: %w", ctx.Err())
		case <-c.ctx.Done():
			return errors.New("river: coordinator closed")
		case <-t.C:
		}
	}
}

func (c *Coordinator) allPlaced() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ps := range c.st.pipelines {
		if ps.entryAddr == "" {
			return false
		}
	}
	for _, p := range c.st.placements {
		if p.node == "" {
			return false
		}
	}
	return true
}

// Status snapshots the cluster: registered nodes, their reported segment
// counters, and every pipeline's placements. The snapshot is
// deterministically ordered — pipelines by ID, nodes and their segments
// sorted by name, placements in topology order — so status output is
// scriptable and diffable. The top-level entry/sink/placement fields
// carry the flattened single-pipeline view (see ClusterStatus).
func (c *Coordinator) Status() *ClusterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &ClusterStatus{Epoch: c.st.epoch}
	if ps := c.defaultPipeline(); ps != nil {
		st.EntryAddr = ps.entryAddr
		st.SinkAddr = ps.spec.SinkAddr
	}
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	now := time.Now()
	for _, name := range names {
		m := c.nodes[name]
		segs := append([]SegmentStatus(nil), m.stats...)
		sort.Slice(segs, func(i, j int) bool { return segs[i].Name < segs[j].Name })
		st.Nodes = append(st.Nodes, NodeStatus{
			Name:       name,
			LastBeatMS: now.Sub(m.lastBeat).Milliseconds(),
			Segments:   segs,
		})
	}
	for _, id := range c.st.order {
		ps := c.st.pipelines[id]
		pst := PipelineStatus{ID: id, EntryAddr: ps.entryAddr, SinkAddr: ps.spec.SinkAddr}
		for _, u := range ps.units {
			p := c.st.placements[u.name]
			plc := PlacementStatus{
				Seg:      u.name,
				Pipeline: id,
				Type:     u.typ,
				Role:     u.role,
				Node:     p.node,
				Addr:     p.addr,
				Placed:   p.node != "",
			}
			if u.role != "" {
				plc.Group = u.group
			}
			pst.Placements = append(pst.Placements, plc)
		}
		st.Placements = append(st.Placements, pst.Placements...)
		st.Pipelines = append(st.Pipelines, pst)
	}
	return st
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf("coordinator: "+format, args...)
	}
}

func (c *Coordinator) kickReconcile() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// acceptLoop serves control connections until Close.
func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		// Close may have swept c.conns between Accept and the insert
		// above; re-checking after the insert guarantees one side closes
		// this connection (cancel happens before the sweep).
		if c.ctx.Err() != nil {
			c.mu.Lock()
			delete(c.conns, conn)
			c.mu.Unlock()
			_ = conn.Close()
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handleConn(conn)
			c.mu.Lock()
			delete(c.conns, conn)
			c.mu.Unlock()
			_ = conn.Close()
		}()
	}
}

// handleConn dispatches one control connection by its first message:
// register opens a long-lived node session, watch a long-lived entry
// subscription, status / drain / pipeline_add / pipeline_remove are
// client requests. Whatever the session, the first message must announce
// this build's ProtocolVersion; any other peer is refused before its
// request is looked at.
func (c *Coordinator) handleConn(conn net.Conn) {
	w := newWire(conn)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	first, err := w.recv()
	if err != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	if first.Ver != ProtocolVersion {
		c.event(obs.Event{
			Type: obs.EventReject, Node: first.Node, Value: float64(first.Ver),
			Detail: first.Type + " session",
		})
		c.logf("refused %s session from %s: peer protocol v%d, want v%d",
			first.Type, conn.RemoteAddr(), first.Ver, ProtocolVersion)
		_ = w.send(&Message{Type: TypeAck, ID: first.ID, Ver: ProtocolVersion,
			Err: fmt.Sprintf("peer speaks protocol v%d, coordinator speaks v%d", first.Ver, ProtocolVersion)})
		return
	}
	switch first.Type {
	case TypeRegister:
		c.serveNode(w, first)
	case TypeStatus:
		_ = w.send(&Message{Type: TypeAck, ID: first.ID, Status: c.Status()})
	case TypeDrain:
		reply := &Message{Type: TypeAck, ID: first.ID}
		if err := c.Drain(scopedName(first.Pipeline, first.Seg)); err != nil {
			reply.Err = err.Error()
		}
		_ = w.send(reply)
	case TypePipelineAdd:
		reply := &Message{Type: TypeAck, ID: first.ID}
		if first.Spec == nil {
			reply.Err = "pipeline_add without a spec"
		} else if err := c.AddPipeline(*first.Spec); err != nil {
			reply.Err = err.Error()
		}
		_ = w.send(reply)
	case TypePipelineRemove:
		reply := &Message{Type: TypeAck, ID: first.ID}
		if err := c.RemovePipeline(first.Pipeline); err != nil {
			reply.Err = err.Error()
		}
		_ = w.send(reply)
	case TypeWatch:
		c.serveWatcher(w, first.Pipeline)
	case TypeWatchEvents:
		c.serveEventWatcher(w, first)
	default:
		_ = w.send(&Message{Type: TypeAck, ID: first.ID,
			Err: fmt.Sprintf("unexpected first message %q", first.Type)})
	}
}

// serveNode runs one agent's control session: it acks the registration,
// then folds heartbeats into the member state and routes request acks to
// their waiters until the connection drops.
func (c *Coordinator) serveNode(w *wire, reg *Message) {
	name := reg.Node
	if name == "" {
		_ = w.send(&Message{Type: TypeAck, Err: "register without node name"})
		return
	}
	m := &member{
		name:     name,
		w:        w,
		lastBeat: time.Now(),
		marks:    make(map[string]counterMark),
		pending:  make(map[uint64]chan *Message),
	}
	c.mu.Lock()
	if _, dup := c.nodes[name]; dup {
		c.mu.Unlock()
		_ = w.send(&Message{Type: TypeAck, Err: fmt.Sprintf("node name %q already registered", name)})
		return
	}
	c.nodes[name] = m
	// The node is back; its disconnect-grace deadline (if any) is moot.
	delete(c.disconnected, name)
	// Reconcile the agent's hosted-unit inventory against the desired
	// state: adopt what matches (after a control blip or a coordinator
	// restart the instances never stopped), tell the agent to stop the
	// rest, and free anything the tables expected on this node that is no
	// longer running.
	adopted, stops := c.st.adopt(name, reg.Inventory)
	if len(reg.Inventory) > 0 {
		m.stats = inventoryStats(reg.Inventory)
	}
	epoch := c.st.epoch
	c.mu.Unlock()
	ack := &Message{
		Type: TypeAck, Ver: ProtocolVersion,
		HeartbeatMS: c.cfg.HeartbeatInterval.Milliseconds(),
		CoordEpoch:  epoch, Adopted: adopted, StopUnits: stops,
	}
	if err := w.send(ack); err != nil {
		c.markDead(name, "register ack failed")
		return
	}
	c.event(obs.Event{Type: obs.EventRegister, Node: name})
	for _, u := range adopted {
		c.event(obs.Event{Type: obs.EventAdopt, Unit: u, Node: name})
	}
	if len(adopted) > 0 || len(stops) > 0 {
		c.logf("node %s registered: adopted %v, stopping %v", name, adopted, stops)
	} else {
		c.logf("node %s registered", name)
	}
	c.kickReconcile()
	for {
		msg, err := w.recv()
		if err != nil {
			c.markDead(name, "control connection lost")
			return
		}
		switch msg.Type {
		case TypeHeartbeat:
			var events []obs.Event
			c.mu.Lock()
			m.lastBeat = time.Now()
			m.stats = msg.Segments
			// A segment can die while its node stays healthy (operator
			// error killed the hosted pipeline). The heartbeat reports it
			// as failed; free its placement so reconcile re-places it. The
			// address match skips stale reports about an instance that has
			// already been replaced.
			var failed []string
			for _, s := range msg.Segments {
				if s.Failed {
					if p := c.st.placements[s.Name]; p != nil && p.node == name && p.addr == s.Addr {
						c.st.clear(p)
						c.pendingStops = append(c.pendingStops, stopReq{node: name, seg: s.Name})
						failed = append(failed, s.Name)
						events = append(events, obs.Event{
							Type: obs.EventSegmentFailed, Unit: s.Name, Node: name, Detail: s.Err,
						})
					}
				}
				// Loss and alert counters become events by delta against
				// the last heartbeat. On first sight of an instance (or a
				// replacement at a new address) the baseline seeds silently:
				// its counters either just restarted or carry history the
				// coordinator never owned (adoption after a restart).
				mark, seen := m.marks[s.Name]
				if !seen || mark.addr != s.Addr {
					m.marks[s.Name] = counterMark{addr: s.Addr, legDrops: s.LegDrops, skipped: s.Skipped, alerts: s.Alerts, corrupt: s.Corrupt}
					continue
				}
				if d := s.LegDrops - mark.legDrops; d > 0 && s.LegDrops >= mark.legDrops {
					events = append(events, obs.Event{
						Type: obs.EventLegDrop, Unit: s.Name, Node: name,
						Metric: "leg_drops", Value: float64(d),
					})
				}
				if d := s.Skipped - mark.skipped; d > 0 && s.Skipped >= mark.skipped {
					events = append(events, obs.Event{
						Type: obs.EventGapSkip, Unit: s.Name, Node: name,
						Metric: "skipped", Value: float64(d),
					})
				}
				if d := s.Alerts - mark.alerts; d > 0 && s.Alerts >= mark.alerts {
					events = append(events, obs.Event{
						Type: obs.EventAlert, Unit: s.Name, Node: name,
						Metric: "alerts", Value: float64(d),
						Detail: "detector alarm(s) in the data plane",
					})
				}
				if d := s.Corrupt - mark.corrupt; d > 0 && s.Corrupt >= mark.corrupt {
					events = append(events, obs.Event{
						Type: obs.EventCorruption, Unit: s.Name, Node: name,
						Metric: "corrupt_batches", Value: float64(d),
						Detail: "corrupt batch frame(s) dropped on ingest",
					})
				}
				m.marks[s.Name] = counterMark{addr: s.Addr, legDrops: s.LegDrops, skipped: s.Skipped, alerts: s.Alerts, corrupt: s.Corrupt}
			}
			c.mu.Unlock()
			for _, e := range events {
				c.event(e)
			}
			if len(failed) > 0 {
				c.logf("node %s reports dead segments %v; re-placing", name, failed)
				c.kickReconcile()
			}
		case TypeAck:
			c.mu.Lock()
			var ch chan *Message
			if m.pending != nil {
				ch = m.pending[msg.ID]
				delete(m.pending, msg.ID)
			}
			c.mu.Unlock()
			if ch != nil {
				ch <- msg
			}
		}
	}
}

// inventoryStats seeds a re-registering member's segment telemetry from
// its inventory, so status (and placement policy) have counters before
// the first heartbeat lands.
func inventoryStats(inv []UnitInventory) []SegmentStatus {
	out := make([]SegmentStatus, len(inv))
	for i, iu := range inv {
		out[i] = SegmentStatus{
			Name: iu.Name, Type: cmp.Or(iu.Type, iu.Role), Addr: iu.Addr, Role: iu.Role,
			Processed: iu.Processed, Emitted: iu.Emitted,
			Legs: len(iu.Legs), Failed: iu.Failed,
		}
	}
	return out
}

// serveWatcher streams one pipeline's entry-address updates to one
// subscriber until its connection drops. An unknown pipeline is refused
// with an error ack so the watcher does not hang on silence.
func (c *Coordinator) serveWatcher(w *wire, pipe string) {
	c.mu.Lock()
	ps := c.st.pipelines[pipe]
	if ps == nil {
		c.mu.Unlock()
		_ = w.send(&Message{Type: TypeAck, Err: fmt.Sprintf("unknown pipeline %q", pipe)})
		return
	}
	ew := &entryWatcher{pipe: pipe, kick: make(chan struct{}, 1), done: make(chan struct{})}
	c.watchers[w] = ew
	// Seed the cell with the current address before releasing mu: any
	// broadcast that lands later carries a newer address and overwrites
	// it (latest wins), so the watcher's last word is always current.
	ew.offer(&Message{Type: TypeEntry, Addr: ps.entryAddr, Pipeline: pipe})
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-ew.done:
				return
			case <-c.ctx.Done():
				return
			case <-ew.kick:
			}
			for m := ew.take(); m != nil; m = ew.take() {
				if err := w.send(m); err != nil {
					c.dropWatcher(w)
					_ = w.close()
					return
				}
			}
		}
	}()
	for {
		if _, err := w.recv(); err != nil {
			c.dropWatcher(w)
			return
		}
	}
}

// dropWatcher unregisters an entry watcher and stops its sender. Safe to
// call twice (the recv loop and the sender both drop on error): only the
// caller that removes the map row closes the sender's done channel.
func (c *Coordinator) dropWatcher(w *wire) {
	c.mu.Lock()
	ew := c.watchers[w]
	delete(c.watchers, w)
	c.mu.Unlock()
	if ew != nil {
		close(ew.done)
	}
}

// markDead removes a node; in-flight RPCs against it fail immediately.
// Without a DisconnectGrace its units are freed for re-placement on the
// spot; with one, they stay presumed-alive until the grace deadline so a
// blipped agent's reconnect-and-adopt wins over a needless move (the
// lazy expiry lives in unitHost).
func (c *Coordinator) markDead(name, reason string) {
	if c.ctx.Err() != nil {
		// The coordinator itself is shutting down: agent sessions are
		// ending because Close cut them, not because nodes died. Leave
		// the placement tables — and their journal — untouched, so a
		// coordinator restarted over the state directory adopts the
		// still-running instances instead of re-placing a healthy data
		// plane. (In-flight RPCs fail via the coordinator context.)
		return
	}
	c.mu.Lock()
	m := c.nodes[name]
	if m == nil || m.gone {
		c.mu.Unlock()
		return
	}
	m.gone = true
	delete(c.nodes, name)
	for _, ch := range m.pending {
		close(ch)
	}
	m.pending = nil
	var lost []string
	hosts := false
	for _, p := range c.st.placements {
		if p.node == name {
			hosts = true
			if c.cfg.DisconnectGrace <= 0 {
				c.st.clear(p)
				lost = append(lost, p.u.name)
			}
		}
	}
	if hosts && c.cfg.DisconnectGrace > 0 {
		c.disconnected[name] = time.Now().Add(c.cfg.DisconnectGrace)
	}
	c.mu.Unlock()
	_ = m.w.close()
	sort.Strings(lost)
	switch {
	case len(lost) > 0:
		c.event(obs.Event{Type: obs.EventFailover, Node: name,
			Detail: fmt.Sprintf("%s; lost %s", reason, strings.Join(lost, " "))})
		c.logf("node %s dead (%s); re-placing %v", name, reason, lost)
	case hosts && c.cfg.DisconnectGrace > 0:
		c.logf("node %s disconnected (%s); holding its units %s for reconnect-and-adopt",
			name, reason, c.cfg.DisconnectGrace)
	default:
		c.logf("node %s dead (%s)", name, reason)
	}
	c.kickReconcile()
}

// reconcileLoop drives the cluster toward the specs: it expires silent
// nodes and reconciles placements and splices, waking on
// registration/death kicks and on a timer that paces heartbeat expiry
// (and retries any RPC that failed last pass).
func (c *Coordinator) reconcileLoop() {
	defer c.wg.Done()
	period := c.cfg.HeartbeatTimeout / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-c.kick:
		case <-tick.C:
		}
		c.expireDead()
		start := time.Now()
		c.reconcile()
		c.recDur.Observe(time.Since(start).Seconds())
	}
}

// expireDead declares nodes dead after HeartbeatTimeout of silence.
func (c *Coordinator) expireDead() {
	cutoff := time.Now().Add(-c.cfg.HeartbeatTimeout)
	c.mu.Lock()
	var stale []string
	for name, m := range c.nodes {
		if m.lastBeat.Before(cutoff) {
			stale = append(stale, name)
		}
	}
	c.mu.Unlock()
	for _, name := range stale {
		c.markDead(name, "missed heartbeats")
	}
}

// reconcile drives every pipeline toward its spec. Pipelines reconcile
// independently in deterministic ID order; within one, the chain is
// walked sink-to-source so a fresh placement always has a live address
// to forward to. It is declarative: each pass computes every unit's
// desired downstream (or leg set) and places, redirects or re-legs
// whatever differs from what the live instance was last told — so a
// failed RPC is simply retried on the next pass, and a moved downstream
// re-splices its upstream automatically. Within a replicated group the
// order is merger, replicas, splitter; the splitter is the group's entry
// point.
func (c *Coordinator) reconcile() {
	c.mu.Lock()
	// The bootstrap gate: nothing is placed (so no stop is owed either)
	// until MinNodes nodes have registered at least once. It is read once
	// per pass, so a cluster cold-starting under the gate is laid out by
	// one pass over one node set rather than by whichever units the last
	// registration raced.
	if c.bootstrapped = c.bootstrapped || len(c.nodes) >= c.cfg.MinNodes; !c.bootstrapped {
		c.mu.Unlock()
		return
	}
	// Clean up dead segment instances first. Running the stops on this
	// goroutine, before any placement, guarantees a queued stop executes
	// before a re-assign that reuses the segment name on the same node.
	stops := c.pendingStops
	c.pendingStops = nil
	pipes := make([]*pipelineState, 0, len(c.st.order))
	for _, id := range c.st.order {
		pipes = append(pipes, c.st.pipelines[id])
	}
	c.mu.Unlock()
	for _, s := range stops {
		// Best effort: the ack may carry the dead segment's processing
		// error (already surfaced via the heartbeat), and the node may
		// have died in the meantime.
		if _, err := c.rpc(s.node, &Message{Type: TypeStop, Seg: s.seg}); err != nil {
			c.logf("cleanup of dead segment %s on %s: %v", s.seg, s.node, err)
		}
	}

	for _, ps := range pipes {
		c.reconcilePipeline(ps)
	}
}

// reconcilePipeline runs one reconcile pass over one pipeline's chain.
// Replicated and sharded groups share one shape — fan-in endpoint first,
// then the legs, then the fan-out endpoint, which is the group's entry
// point — so the same walk reconciles both; only the roles carried in the
// assigns differ. The unit slice is snapshotted under mu because a shard
// autoscale can resize it mid-pass.
func (c *Coordinator) reconcilePipeline(ps *pipelineState) {
	specs := ps.spec.Segments
	moved := false // this pass (re-)placed the entry unit, the last one ensured
	for i := len(specs) - 1; i >= 0; i-- {
		if c.ctx.Err() != nil {
			return
		}
		down := ps.spec.SinkAddr
		if i < len(specs)-1 {
			down = c.entryAddrOf(ps, i+1)
		}
		c.mu.Lock()
		us := append([]unit(nil), ps.unitsBySpec[i]...)
		c.mu.Unlock()
		exitAddr, placed := c.ensure(us[0], down, nil) // the plain segment, or the group's fan-in
		if len(us) == 1 {
			moved = placed
			continue
		}
		legs := make([]string, 0, len(us)-2)
		for _, u := range us[1 : len(us)-1] {
			if a, _ := c.ensure(u, exitAddr, nil); a != "" {
				legs = append(legs, a)
			}
		}
		sort.Strings(legs)
		_, moved = c.ensure(us[len(us)-1], "", legs)
	}
	if e := c.entryAddrOf(ps, 0); e != "" {
		c.setEntry(ps.id, e, moved)
	}
}

// entryAddrOf returns the address upstream traffic for spec i dials (its
// last unit: the plain segment, or the group's splitter), or "" while
// unplaced.
func (c *Coordinator) entryAddrOf(ps *pipelineState, i int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	us := ps.unitsBySpec[i]
	if p := c.st.placements[us[len(us)-1].name]; p != nil {
		return p.addr
	}
	return ""
}

// unitHost reads a unit's placement and resolves the grace windows: a
// unit placed on a node that has not (re-)registered is left untouched
// while the restart grace window — or its node's disconnect grace — is
// open (its instance is presumed to still be running detached, so its
// address stays valid for splicing), and is freed for re-placement once
// the window closes. It returns the placement, a snapshot of its fields
// and a live flag; !live means "hands off this pass". A nil placement
// means the unit's pipeline was removed mid-pass.
func (c *Coordinator) unitHost(u unit) (p *placement, cur placement, live bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p = c.st.placements[u.name]
	if p == nil {
		return nil, placement{}, false
	}
	if _, registered := c.nodes[p.node]; p.node != "" && !registered {
		window, open := "restart grace", c.inGrace()
		if deadline, blipped := c.disconnected[p.node]; blipped {
			window, open = "disconnect grace", time.Now().Before(deadline)
		}
		if open {
			return p, *p, false
		}
		node := p.node
		c.logf("unit %s lost: node %s did not come back within its %s; re-placing", u.name, node, window)
		c.event(obs.Event{Type: obs.EventFailover, Node: node, Unit: u.name, Detail: window + " expired"})
		c.st.clear(p)
		// Drop the node's disconnect-grace entry once nothing is recorded
		// against it anymore; until then later units this pass read the
		// same expired deadline and log the same cause.
		still := false
		for _, q := range c.st.placements {
			if q.node == node {
				still = true
				break
			}
		}
		if !still {
			delete(c.disconnected, node)
		}
	}
	return p, *p, true
}

// ensure places unit u if it is unplaced, or re-splices its live instance
// if its desired target moved, and returns the unit's current address (""
// while unplaced or blocked). The target of a fan-out endpoint is its leg
// set (legs, sorted; down is ""), re-spliced with a legs update that drops
// dead legs and takes re-placed, resized or drained ones in; the target of
// every other unit is its one downstream (down; legs is nil), re-spliced
// with a redirect. Nothing else differs between the two, so they share
// the place-or-adopt path below. placed reports a fresh instance.
func (c *Coordinator) ensure(u unit, down string, legs []string) (addr string, placed bool) {
	kind := KindOf(u.role)
	p, cur, live := c.unitHost(u)
	if !live || (down == "" && len(legs) == 0) {
		// Hands off, or nothing to forward to yet (a fan-out endpoint is
		// placed once at least one leg exists).
		return cur.addr, false
	}
	if cur.node == "" {
		return c.place(u, kind, p, down, legs)
	}
	fanOut := kind == KindFanOut
	if (fanOut && slices.Equal(cur.legs, legs)) || (!fanOut && cur.down == down) {
		return cur.addr, false // the steady state: nothing moved
	}
	splice := &Message{Type: TypeRedirect, Seg: u.name, Downstream: down}
	done := obs.Event{Type: obs.EventRedirect, Unit: u.name, Node: cur.node, Addr: down}
	if fanOut {
		splice = &Message{Type: TypeLegs, Seg: u.name, Downstreams: legs}
		done = obs.Event{Type: obs.EventLegs, Unit: u.name, Node: cur.node, Value: float64(len(legs))}
	}
	if _, err := c.rpc(cur.node, splice); err != nil {
		// The instance still streams to the stale target; the next pass
		// retries, so the stall cannot become permanent.
		c.logf("%s %s on %s: %v (will retry)", splice.Type, u.name, cur.node, err)
		return cur.addr, false
	}
	c.mu.Lock()
	if c.st.placements[u.name] == p {
		c.st.setPlacement(p, placementRecord{Node: p.node, Addr: p.addr, Down: down, Legs: legs})
	}
	c.mu.Unlock()
	c.event(done)
	c.logf("%s re-spliced to %s%v", u.name, down, legs)
	return cur.addr, false
}

// place assigns unplaced unit u to a node the placement policy picks and
// commits the placement — unless, while the assign RPC was in flight, the
// node died (the unit stays unplaced for the next pass), the unit's
// pipeline was removed, or a re-registering agent's surviving instance
// was adopted back (the fresh duplicate is stopped either way). Fan
// endpoints are assigned with their role and group; each fan-out
// assignment also advances the group's epoch so the fan-in endpoint can
// tell a fresh incarnation's numbering from its predecessor's. placed
// reports that the new instance was committed.
func (c *Coordinator) place(u unit, kind UnitKind, p *placement, down string, legs []string) (addr string, placed bool) {
	pick := c.pickNode(u, "")
	if pick == "" {
		c.logf("%s waiting: no eligible nodes", u.name)
		return "", false
	}
	msg := &Message{Type: TypeAssign, Seg: u.name, SegType: u.typ, Downstream: down, Downstreams: legs}
	if kind.Endpoint() {
		msg.Role, msg.Group = u.role, u.group
	}
	detail := ""
	if kind == KindFanOut {
		c.mu.Lock()
		msg.Epoch = c.st.bumpGroupEpoch(u.group)
		c.mu.Unlock()
		detail = fmt.Sprintf("epoch %d, %d legs", msg.Epoch, len(legs))
	}
	a, err := c.assign(pick, msg)
	if err != nil {
		c.logf("assign %s to %s: %v", u.name, pick, err)
		return "", false
	}
	c.mu.Lock()
	if _, alive := c.nodes[pick]; !alive {
		c.mu.Unlock()
		return "", false
	}
	if removed := c.st.placements[u.name] != p; removed || p.node != "" {
		// While the assign was in flight the unit's pipeline was removed,
		// or a re-registering agent's surviving instance was adopted back
		// (it is already wired into the stream, so it wins): either way
		// the fresh instance is an orphan to stop.
		c.pendingStops = append(c.pendingStops, stopReq{node: pick, seg: u.name})
		if !removed {
			addr = p.addr
			c.logf("%s adopted on %s during assign; stopping duplicate on %s", u.name, p.node, pick)
		}
		c.mu.Unlock()
		c.kickReconcile()
		return addr, false
	}
	typ := obs.EventPlace
	if p.everPlaced {
		typ = obs.EventReplace
	}
	c.st.setPlacement(p, placementRecord{Node: pick, Addr: a, Down: down, Legs: legs})
	c.mu.Unlock()
	c.event(obs.Event{Type: typ, Unit: u.name, Node: pick, Addr: a, Detail: detail})
	c.logf("%s placed on %s at %s %s", u.name, pick, a, detail)
	return a, true
}

// pickNode chooses a live node for unit u via the placement policy,
// excluding (if non-empty) one node a drain is moving away from. Each
// candidate carries its placed-segment count — across every pipeline,
// since the node pool is shared — plus the flow telemetry from its
// latest heartbeat, and whether it hosts a topology neighbor of u within
// u's own pipeline (an adjacent spec segment, or a unit of u's own
// replication or shard group), so policies can spread chains across
// failure domains without pipelines penalizing each other's placements.
// Replicas and shard legs go further: candidates hosting a sibling
// replica (or sibling shard leg) are excluded outright while any
// alternative exists — replicas so the copies survive a node loss, shard
// legs so the data-parallel CPU work actually lands on distinct cores.
// Returns "" when u's pipeline was removed or no node is eligible.
func (c *Coordinator) pickNode(u unit, exclude string) string {
	c.mu.Lock()
	ps := c.st.pipelineOf(u)
	if ps == nil {
		c.mu.Unlock()
		return ""
	}
	specIdx := ps.specIndex[u.group]
	neighbors := make(map[string]bool)
	siblings := make(map[string]bool)
	for j := max(specIdx-1, 0); j <= min(specIdx+1, len(ps.unitsBySpec)-1); j++ {
		for _, v := range ps.unitsBySpec[j] {
			p := c.st.placements[v.name]
			if v.name == u.name || p == nil || p.node == "" {
				continue
			}
			neighbors[p.node] = true
			if v.group == u.group && v.role == u.role && KindOf(u.role) == KindLeg {
				siblings[p.node] = true
			}
		}
	}
	load := make(map[string]*NodeLoad, len(c.nodes))
	for name, m := range c.nodes {
		nl := &NodeLoad{Name: name, HostsNeighbor: neighbors[name]}
		for _, st := range m.stats {
			nl.Lag += st.LagValue()
			nl.QueueDepth += st.QueueDepth
			nl.QueueCap += st.QueueCap
		}
		load[name] = nl
	}
	for _, p := range c.st.placements {
		if p.node != "" {
			if nl := load[p.node]; nl != nil {
				nl.Segments++
			}
		}
	}
	c.mu.Unlock()
	cands := make([]NodeLoad, 0, len(load))
	for name, nl := range load {
		if name == exclude || siblings[name] {
			continue
		}
		cands = append(cands, *nl)
	}
	if len(cands) == 0 && len(siblings) > 0 {
		// Fewer nodes than legs: better a co-located replica or shard than
		// an unplaced one.
		for name, nl := range load {
			if name != exclude {
				cands = append(cands, *nl)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Name < cands[j].Name })
	return c.cfg.Placer.Pick(cands)
}

// Drain gracefully moves a placed unit to another node — the
// operator-initiated counterpart of failover re-placement, built to
// repair zero scopes: a fresh instance is placed first, the stream is
// spliced over without cutting it mid-scope, and the old instance is
// stopped only after its tail has settled downstream. unitName is the
// scoped placement key (e.g. "extract", or "pA:extract/r2" for a named
// pipeline's replica).
//
// For a replica unit the splice is a splitter leg swap (the merger's
// dedup makes the handover invisible at any stream position); a shard
// leg drains the same way via its partitioner, whose retiring leg
// flushes its queue through the old instance before the stop. For an
// ordinary segment the upstream neighbor redirects at the next top-level
// scope boundary, so the old instance's final connection ends with a
// structurally complete stream; draining a pipeline's entry segment
// publishes the new address immediately (external sources redirect
// eagerly). Splitter/merger and partition/collect endpoints cannot be
// drained — move their legs.
func (c *Coordinator) Drain(unitName string) error {
	c.drainMu.Lock()
	defer c.drainMu.Unlock()
	c.drainsActive.Add(1)
	defer c.drainsActive.Add(-1)
	c.mu.Lock()
	p := c.st.placements[unitName]
	if p == nil {
		c.mu.Unlock()
		return fmt.Errorf("river: unknown unit %q", unitName)
	}
	u := p.u
	ps := c.st.pipelineOf(u)
	oldNode, oldAddr, down := p.node, p.addr, p.down
	c.mu.Unlock()
	if ps == nil {
		return fmt.Errorf("river: unknown unit %q", unitName)
	}
	kind := KindOf(u.role)
	if kind.Endpoint() {
		return fmt.Errorf("river: draining a %s endpoint is not supported; drain its group's legs instead", u.role)
	}
	if oldNode == "" {
		return fmt.Errorf("river: %q is not placed", unitName)
	}
	if down == "" {
		return fmt.Errorf("river: %q has no downstream yet", unitName)
	}
	dest := c.pickNode(u, oldNode)
	if dest == "" || dest == oldNode {
		return errors.New("river: no other eligible node to drain to")
	}
	newAddr, err := c.assign(dest, &Message{Type: TypeAssign, Seg: unitName, SegType: u.typ, Downstream: down})
	if err != nil {
		return fmt.Errorf("river: drain assign to %s: %w", dest, err)
	}
	c.event(obs.Event{Type: obs.EventDrain, Unit: unitName, Node: dest,
		Detail: "from " + oldNode})

	// Splice, then commit. The splice RPC happens unlocked; every state
	// change it implies — the unit's new placement, the upstream's new
	// downstream, the entry address — commits under one mu hold so a
	// concurrent reconcile pass can never observe a half-moved topology
	// and splice it backward.
	settle := c.cfg.DrainSettle
	var upP *placement // the upstream exit unit a mid-chain drain re-pointed
	entryDrain := false
	fanOut := "" // the fan-out endpoint a drained leg is spliced through
	c.mu.Lock()
	specIdx := ps.specIndex[u.group]
	group := ps.unitsBySpec[specIdx]
	c.mu.Unlock()
	switch {
	case kind == KindLeg:
		// The splice is the reconcile loop's: once the move commits below,
		// the group's desired leg set names the fresh instance in place of
		// the old one and the ordinary legs update swaps it in (a replica
		// handover is invisible behind the merger's dedup; a retiring shard
		// leg flushes its queue through the old instance). retire waits for
		// that update to land before stopping the old instance.
		fanOut = group[len(group)-1].name
	case specIdx == 0:
		// Unlike the mid-chain path there is no ack that the external
		// source switched: give it the full boundary window sources use
		// (see WatchPipelineEntry / StreamOut.RedirectAtBoundary) before
		// the old instance is stopped, so a boundary-honoring station has
		// ended the old stream cleanly by then. A source that ignores the
		// hint degrades to an ordinary redirect's repair seam. The entry
		// address commits together with the placement below, so reconcile
		// cannot re-announce the stale address during the window.
		entryDrain = true
		if settle < entryBoundaryWindow {
			settle = entryBoundaryWindow
		}
	default:
		c.mu.Lock()
		up := ps.unitsBySpec[specIdx-1][0] // the spec's exit unit: plain segment or fan-in
		upP = c.st.placements[up.name]
		upNode := ""
		if upP != nil {
			upNode = upP.node
		}
		c.mu.Unlock()
		if upNode == "" {
			return fmt.Errorf("river: upstream of %q is unplaced; cannot splice", unitName)
		}
		if _, err := c.rpc(upNode, &Message{Type: TypeRedirect, Seg: up.name, Downstream: newAddr, Boundary: true}); err != nil {
			return fmt.Errorf("river: drain splice via %s: %w", up.name, err)
		}
	}

	c.mu.Lock()
	if c.st.placements[unitName] != p {
		// The pipeline was removed while the drain was in flight: both
		// the old and the fresh instance are orphans now.
		c.pendingStops = append(c.pendingStops,
			stopReq{node: oldNode, seg: unitName}, stopReq{node: dest, seg: unitName})
		c.mu.Unlock()
		c.kickReconcile()
		return fmt.Errorf("river: pipeline of %q removed mid-drain", unitName)
	}
	if _, alive := c.nodes[dest]; !alive {
		// The destination died mid-drain: leave the unit free so the
		// reconcile loop re-places it (the old instance, already spliced
		// away, is stopped below either way).
		c.st.clear(p)
		c.mu.Unlock()
		c.kickReconcile()
		return fmt.Errorf("river: drain destination %s died; %s awaits re-placement", dest, unitName)
	}
	c.st.setPlacement(p, placementRecord{Node: dest, Addr: newAddr, Down: down})
	if upP != nil {
		pr := upP.record()
		pr.Down = newAddr
		c.st.setPlacement(upP, pr)
	}
	var ews []*entryWatcher
	if entryDrain && c.st.setEntry(u.pipe, newAddr) {
		ews = c.watchersOf(u.pipe)
	}
	c.mu.Unlock()
	if entryDrain {
		c.event(obs.Event{Type: obs.EventEntry, Pipeline: u.pipe, Addr: newAddr, Detail: "boundary drain"})
		c.logf("pipeline %q entry now %s (boundary drain)", u.pipe, newAddr)
		c.broadcastEntry(ews, u.pipe, newAddr, true)
	}
	c.logf("drained %s: %s -> %s at %s", unitName, oldNode, dest, newAddr)
	c.kickReconcile()
	c.retire(fanOut, settle, retiree{node: oldNode, unit: unitName, addr: oldAddr,
		drained: obs.Event{Type: obs.EventDrained, Unit: unitName, Node: dest, Addr: newAddr,
			Detail: "from " + oldNode}})
	return nil
}

// retiree is one old instance the stream has been spliced away from, and
// the drained event that reports its move complete.
type retiree struct {
	node, unit, addr string
	drained          obs.Event
}

// retire is the tail every planned move ends with — an operator or
// remediation drain, an autoscale scale-in: wait until the fan-out
// endpoint's committed leg set no longer names the old instances (fanOut
// is "" for a plain segment, whose splice the caller already confirmed),
// let them finish emitting the tails they accepted before the splice,
// then stop them and report each drained. Waiting on the committed legs
// rather than on the caller's own legs RPC covers a splice that failed
// and was left to the reconcile loop.
func (c *Coordinator) retire(fanOut string, settle time.Duration, olds ...retiree) {
	spliced := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		p := c.st.placements[fanOut]
		return p == nil || !slices.ContainsFunc(olds, func(r retiree) bool {
			return slices.Contains(p.legs, r.addr)
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for fanOut != "" && !spliced() && time.Now().Before(deadline) {
		select {
		case <-time.After(25 * time.Millisecond):
		case <-c.ctx.Done():
			return
		}
	}
	select {
	case <-time.After(settle):
	case <-c.ctx.Done():
		return
	}
	for _, r := range olds {
		if _, err := c.rpc(r.node, &Message{Type: TypeStop, Seg: r.unit}); err != nil {
			c.logf("stop of drained %s on %s: %v", r.unit, r.node, err)
		}
		c.event(r.drained)
	}
	c.kickReconcile()
}

// assign RPCs an agent to host a unit and returns the bound address.
func (c *Coordinator) assign(node string, msg *Message) (string, error) {
	reply, err := c.rpc(node, msg)
	if err != nil {
		return "", err
	}
	if reply.Addr == "" {
		return "", errors.New("assign ack without address")
	}
	return reply.Addr, nil
}

// rpc sends a request to a node's control session and waits for the
// matching ack. It fails fast when the node dies mid-flight.
func (c *Coordinator) rpc(node string, msg *Message) (*Message, error) {
	c.mu.Lock()
	m := c.nodes[node]
	if m == nil || m.pending == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("node %s not registered", node)
	}
	c.nextID++
	id := c.nextID
	msg.ID = id
	ch := make(chan *Message, 1)
	m.pending[id] = ch
	c.mu.Unlock()

	cleanup := func() {
		c.mu.Lock()
		if m.pending != nil {
			delete(m.pending, id)
		}
		c.mu.Unlock()
	}
	if err := m.w.send(msg); err != nil {
		cleanup()
		return nil, err
	}
	timer := time.NewTimer(c.cfg.RPCTimeout)
	defer timer.Stop()
	select {
	case reply, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("node %s died during %s", node, msg.Type)
		}
		if reply.Err != "" {
			return nil, errors.New(reply.Err)
		}
		return reply, nil
	case <-timer.C:
		cleanup()
		return nil, fmt.Errorf("%s to node %s timed out", msg.Type, node)
	case <-c.ctx.Done():
		cleanup()
		return nil, errors.New("coordinator closed")
	}
}

// setEntry records a pipeline's entry address and, when it changed or
// the entry unit was just re-placed (moved; it may come back at its old
// host:port), announces it (an immediate move: failover or initial
// placement) to that pipeline's watchers — and, for the default
// pipeline, the OnEntryChange hook. Entry drains bypass it — they commit
// the address together with the placement and broadcast with the
// boundary hint.
func (c *Coordinator) setEntry(pipe, addr string, moved bool) {
	c.mu.Lock()
	if !c.st.setEntry(pipe, addr) && !moved {
		c.mu.Unlock()
		return
	}
	ews := c.watchersOf(pipe)
	c.mu.Unlock()
	c.event(obs.Event{Type: obs.EventEntry, Pipeline: pipe, Addr: addr})
	if pipe == "" {
		c.logf("pipeline entry now %s", addr)
	} else {
		c.logf("pipeline %q entry now %s", pipe, addr)
	}
	c.broadcastEntry(ews, pipe, addr, false)
}

// watchersOf lists a pipeline's entry watchers. Callers hold mu.
func (c *Coordinator) watchersOf(pipe string) []*entryWatcher {
	var ews []*entryWatcher
	for _, ew := range c.watchers {
		if ew.pipe == pipe {
			ews = append(ews, ew)
		}
	}
	return ews
}

// broadcastEntry hands an entry address to a pipeline's watchers' sender
// goroutines (and, for the default pipeline, the OnEntryChange hook);
// boundary asks watching sources to switch at their next top-level scope
// boundary rather than immediately. The handoff never blocks: each
// watcher's own sender performs the network write.
func (c *Coordinator) broadcastEntry(ews []*entryWatcher, pipe, addr string, boundary bool) {
	for _, ew := range ews {
		ew.offer(&Message{Type: TypeEntry, Addr: addr, Pipeline: pipe, Boundary: boundary})
	}
	if pipe == "" && c.cfg.OnEntryChange != nil {
		c.cfg.OnEntryChange(addr)
	}
}
