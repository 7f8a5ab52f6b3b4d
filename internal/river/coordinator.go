package river

import (
	"context"
	"errors"
	"fmt"
	"net"
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

// Coordinator owns a registry of desired pipeline topologies and drives
// registered node agents to realize them. It is started by NewCoordinator
// and stopped by Close. Its decisions are the pure core's (core.go); the
// Coordinator is the shell around it — the listener, one reader per
// connection, the entry watchers' senders, the tick timer, request
// deadlines and the journal file. One goroutine (loop) owns the core and
// the shell's tables, and feeds the core its inputs in order.
type Coordinator struct {
	cfg      Config
	ln       net.Listener
	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup // every goroutine but the loop
	closed   sync.Once
	calls    chan func()
	quit     chan struct{} // ends the loop once the rest have returned
	loopDone chan struct{}

	// Owned by the loop goroutine.
	k        *core
	sessions map[uint64]*wire
	nextSess uint64
	// watchers maps an entry-watch subscription to its fan-out state:
	// each watcher has a dedicated sender goroutine fed through a
	// latest-wins cell, so entry broadcasts never serialize the control
	// plane (or each other) behind one slow watcher connection.
	watchers map[*wire]*entryWatcher

	// Observability (see observe.go). reg and events are always live; the
	// HTTP endpoint and its stop hook exist only when Config.MetricsAddr is
	// set.
	reg         *obs.Registry
	events      *obs.EventLog
	recDur      *obs.Histogram
	evWatchers  atomic.Int32
	metricsAddr string
	metricsStop func() error
}

// entryWatcher is one entry-watch subscription: the pipeline it follows
// and the latest-wins handoff cell its sender goroutine drains. Entry
// updates are idempotent latest-state notifications, so a watcher that
// falls behind skips intermediate addresses instead of queueing them —
// the cell holds at most one pending update.
type entryWatcher struct {
	pipe string
	next chan *Message // cap 1, filled only by the loop
	done chan struct{} // closed by dropWatcher
}

// offer replaces the pending update. The loop is the cell's one writer,
// so after the stale update is taken out the put cannot block.
func (ew *entryWatcher) offer(m *Message) {
	select {
	case <-ew.next:
	default:
	}
	ew.next <- m
}

// tickEvery is the shell's clock: each tick is one inTick for the core,
// which paces heartbeat expiry, settles, monitor samples, autoscale
// evaluations and periodic reconcile passes off it.
const tickEvery = 10 * time.Millisecond

var (
	errClosed   = errors.New("river: coordinator closed")
	errTimedOut = errors.New("timed out")
)

// NewCoordinator validates cfg, binds the control listener and starts the
// coordinator's accept loop and its core's loop.
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
	c := &Coordinator{
		cfg:      cfg,
		calls:    make(chan func()),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
		sessions: make(map[uint64]*wire),
		watchers: make(map[*wire]*entryWatcher),
	}
	st, restored, err := newState(cfg.StateDir, boot, c.logf)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("river: coordinator listen %s: %w", cfg.ListenAddr, err)
	}
	c.ln, c.k = ln, newCore(cfg, st, restored, time.Now())
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.setupObs()
	if cfg.MetricsAddr != "" {
		bound, stop, err := obs.Serve(cfg.MetricsAddr, c.reg)
		if err != nil {
			c.cancel()
			_ = ln.Close()
			st.close()
			return nil, err
		}
		c.metricsAddr, c.metricsStop = bound, stop
		c.logf("observability endpoint on http://%s/metrics", bound)
	}
	c.wg.Add(1)
	go c.acceptLoop()
	go c.loop()
	return c, nil
}

// loop owns the core: it runs the closures connection readers, timers
// and public calls hand it, and a tick every tickEvery. Closures waiting
// go first, so heartbeats that queued behind a slow step are taken in
// before a tick reads the clock and judges their nodes silent.
func (c *Coordinator) loop() {
	defer close(c.loopDone)
	t := time.NewTicker(tickEvery)
	defer t.Stop()
	for {
		select {
		case f := <-c.calls:
			f()
			continue
		default:
		}
		select {
		case <-c.quit:
			return
		case f := <-c.calls:
			f()
		case <-t.C:
			now := time.Now()
			c.step(inTick{now: now})
			c.recDur.Observe(time.Since(now).Seconds())
		}
	}
}

// call runs f on the loop and waits for it. The loop outlives every other
// goroutine of the coordinator, so once it is gone only public calls on a
// closed coordinator remain, and f runs on the caller: it reads tables
// nothing writes anymore, or steps a core that takes no more input.
func (c *Coordinator) call(f func()) {
	done := make(chan struct{})
	select {
	case c.calls <- func() { f(); close(done) }:
		<-done
	case <-c.loopDone:
		f()
	}
}

// request feeds the core the request input in builds around a
// continuation and waits for the core to run it.
func (c *Coordinator) request(ctx context.Context, in func(done func(error)) any) error {
	ch := make(chan error, 1)
	c.call(func() { c.step(in(func(err error) { ch <- err })) })
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		return ctx.Err()
	case <-c.ctx.Done():
		return errClosed
	}
}

// step feeds one input to the core and carries out its actions. Once
// Close has begun nothing more is fed: sessions ending because Close cut
// them are not node deaths, so the tables — and their journal — stay as
// they were for a coordinator restarted over the state directory to adopt
// the still-running instances from.
func (c *Coordinator) step(in any) {
	if c.ctx.Err() != nil {
		return
	}
	for _, a := range c.k.step(in) {
		switch a.kind {
		case actSend:
			if w := c.sessions[a.sess]; w != nil {
				c.sendTo(w, a.msg)
			}
		case actClose:
			if w := c.sessions[a.sess]; w != nil {
				_ = w.close() // its reader reports the session lost
			}
		case actEvent:
			c.event(a.ev)
		case actLog:
			c.logf("%s", a.text)
		case actJournal:
			c.k.st.append(a.je)
		case actEntry:
			for _, ew := range c.watchers {
				if ew.pipe == a.msg.Pipeline {
					ew.offer(a.msg)
				}
			}
		case actUnwatch:
			for w, ew := range c.watchers {
				if ew.pipe == a.text {
					c.dropWatcher(w)
					_ = w.close()
				}
			}
		case actGauge:
			c.reg.Gauge("dynriver_monitor_zscore", "node", a.ev.Node, "metric", a.ev.Metric).Set(a.ev.Score)
		}
	}
	c.k.st.compactIfDue()
}

// sendTo writes a message to an agent session. A request whose reply
// does not arrive within RPCTimeout fails; a session that cannot take the
// write is closed.
func (c *Coordinator) sendTo(w *wire, msg *Message) {
	_ = w.conn.SetWriteDeadline(time.Now().Add(c.cfg.RPCTimeout))
	if err := w.send(msg); err != nil {
		_ = w.close()
		return
	}
	if id := msg.ID; id != 0 {
		time.AfterFunc(c.cfg.RPCTimeout, func() {
			c.call(func() { c.step(inReply{id: id, err: errTimedOut}) })
		})
	}
}

// Epoch returns the coordinator incarnation: 1 for a fresh coordinator,
// advancing by one on every restart from journaled state.
func (c *Coordinator) Epoch() (e uint64) {
	c.call(func() { e = c.k.st.epoch })
	return e
}

// Addr returns the bound control listen address agents and clients dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// AddPipeline registers a new pipeline at runtime: its units are placed
// onto the shared node pool, and the addition is journaled so a restarted
// coordinator reloads it.
func (c *Coordinator) AddPipeline(spec PipelineSpec) error {
	return c.request(context.Background(), func(done func(error)) any { return inAddPipeline{spec, done} })
}

// RemovePipeline deletes a pipeline at runtime: its placed units are
// stopped on their hosts, its watchers are disconnected, and the removal
// is journaled so a restarted coordinator does not resurrect it.
func (c *Coordinator) RemovePipeline(id string) error {
	return c.request(context.Background(), func(done func(error)) any { return inRemovePipeline{id, done} })
}

// Drain gracefully moves a placed unit to another node, repairing zero
// scopes (see core.startDrain), and returns once the old instance has
// been stopped. unitName is the scoped placement key (e.g. "extract", or
// "pA:extract/r2" for a named pipeline's replica). Splitter/merger and
// partition/collect endpoints cannot be drained — move their legs.
func (c *Coordinator) Drain(unitName string) error {
	return c.request(context.Background(), func(done func(error)) any { return inDrain{unitName, done} })
}

// Close stops the coordinator: the listener and every control connection
// close and the goroutines drain, the loop last. Hosted segments on agents
// are left running (agents own their lifecycle).
func (c *Coordinator) Close() error {
	c.closed.Do(func() {
		c.cancel()
		_ = c.ln.Close()
		c.wg.Wait()
		close(c.quit)
		<-c.loopDone
		if c.metricsStop != nil {
			_ = c.metricsStop()
		}
		c.k.st.close()
	})
	return nil
}

// WaitPlaced blocks until every unit of every pipeline is placed (and
// every entry address is known) or ctx expires.
func (c *Coordinator) WaitPlaced(ctx context.Context) error {
	err := c.request(ctx, func(done func(error)) any { return inWaitPlaced{done} })
	if err != nil && err == ctx.Err() {
		return fmt.Errorf("river: waiting for placement: %w", err)
	}
	return err
}

// Status snapshots the cluster: registered nodes, their reported segment
// counters, and every pipeline's placements, deterministically ordered so
// status output is scriptable and diffable (see core.status).
func (c *Coordinator) Status() (st *ClusterStatus) {
	c.call(func() { st = c.k.status() })
	return st
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf("coordinator: "+format, args...)
	}
}

// acceptLoop serves control connections until Close, which closes each
// one through its context hook.
func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer context.AfterFunc(c.ctx, func() { _ = conn.Close() })()
			c.handleConn(conn)
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
	reply := &Message{Type: TypeAck, ID: first.ID}
	switch first.Type {
	case TypeRegister:
		c.serveNode(w, first)
		return
	case TypeWatch:
		c.serveWatcher(w, first.Pipeline)
		return
	case TypeWatchEvents:
		c.serveEventWatcher(w, first)
		return
	case TypeStatus:
		reply.Status = c.Status()
	case TypeDrain:
		err = c.Drain(scopedName(first.Pipeline, first.Seg))
	case TypePipelineAdd:
		err = errors.New("pipeline_add without a spec")
		if first.Spec != nil {
			err = c.AddPipeline(*first.Spec)
		}
	case TypePipelineRemove:
		err = c.RemovePipeline(first.Pipeline)
	default:
		err = fmt.Errorf("unexpected first message %q", first.Type)
	}
	if err != nil {
		reply.Err = err.Error()
	}
	_ = w.send(reply)
}

// serveNode runs one agent's control session: the core registers it (or
// refuses it) and then gets every heartbeat and request ack read off the
// connection, and the session's end, all tagged with the session.
func (c *Coordinator) serveNode(w *wire, reg *Message) {
	var sess uint64
	c.call(func() {
		c.nextSess++
		sess = c.nextSess
		c.sessions[sess] = w
		c.step(inRegister{sess: sess, node: reg.Node, inv: reg.Inventory, at: time.Now()})
	})
	for {
		msg, err := w.recv()
		if err != nil {
			c.call(func() {
				delete(c.sessions, sess)
				c.step(inLost{sess: sess, node: reg.Node, reason: "control connection lost"})
			})
			return
		}
		switch msg.Type {
		case TypeHeartbeat:
			c.call(func() { c.step(inBeat{sess: sess, node: reg.Node, segs: msg.Segments, at: time.Now()}) })
		case TypeAck:
			c.call(func() { c.step(inReply{id: msg.ID, msg: msg}) })
		}
	}
}

// serveWatcher streams one pipeline's entry-address updates to one
// subscriber until its connection drops. An unknown pipeline is refused
// with an error ack so the watcher does not hang on silence.
func (c *Coordinator) serveWatcher(w *wire, pipe string) {
	ew := &entryWatcher{pipe: pipe, next: make(chan *Message, 1), done: make(chan struct{})}
	known := false
	c.call(func() {
		if ps := c.k.st.pipelines[pipe]; ps != nil {
			known = true
			c.watchers[w] = ew
			// Seed the cell with the current address: any broadcast that
			// lands later carries a newer address and overwrites it (latest
			// wins), so the watcher's last word is always current.
			ew.offer(&Message{Type: TypeEntry, Addr: ps.entryAddr, Pipeline: pipe})
		}
	})
	if !known {
		_ = w.send(&Message{Type: TypeAck, Err: fmt.Sprintf("unknown pipeline %q", pipe)})
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-ew.done:
				return
			case <-c.ctx.Done():
				return
			case m := <-ew.next:
				if err := w.send(m); err != nil {
					c.call(func() { c.dropWatcher(w) })
					_ = w.close()
					return
				}
			}
		}
	}()
	for {
		if _, err := w.recv(); err != nil {
			c.call(func() { c.dropWatcher(w) })
			return
		}
	}
}

// dropWatcher unregisters an entry watcher and stops its sender; only
// the first of its callers finds the row. Runs on the loop.
func (c *Coordinator) dropWatcher(w *wire) {
	if ew := c.watchers[w]; ew != nil {
		delete(c.watchers, w)
		close(ew.done)
	}
}
