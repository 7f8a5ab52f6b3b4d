package river

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/replica"
	"repro/internal/shard"
)

// Agent is the node-side half of the control plane. It registers with a
// coordinator, heartbeats the counters of the segments it hosts, and
// executes assign/redirect/stop commands by driving a pipeline.Node whose
// segments are instantiated from the application's registry.
//
// Hosted segment lifetime is owned by the data plane, not by the control
// session: when the control connection drops (coordinator bounce, network
// blip) the segments keep running and the agent reconnects with jittered
// backoff, re-registering with a full hosted-unit inventory so the
// coordinator can adopt the live instances instead of re-placing them.
// Node death remains ctx cancellation, which stops every hosted segment.
type Agent struct {
	name      string
	coordAddr string
	node      *pipeline.Node

	// ListenHost is the interface hosted segments listen on; the bound
	// host:port is advertised to the coordinator, so it must be an
	// address upstream peers can dial (default "127.0.0.1").
	ListenHost string
	// Heartbeat is the beat interval used until the coordinator's
	// register ack overrides it (default 250ms).
	Heartbeat time.Duration
	// DrainWindow bounds how long a boundary-deferred redirect (planned
	// drain) waits for a top-level scope boundary before falling back to
	// an immediate redirect (default 3s; must stay inside the
	// coordinator's RPCTimeout).
	DrainWindow time.Duration
	// ReconnectMin and ReconnectMax bound the jittered backoff between
	// control-session attempts (defaults 100ms and 2s). The backoff
	// doubles from min to max and each sleep is jittered ±50% so a
	// restarted coordinator is not hit by every agent at once.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// DialAttempts bounds consecutive failed session attempts (dial
	// errors and register rejections) before Run gives up, so startup
	// order doesn't matter — an agent started before its coordinator
	// simply retries — but a misconfigured address still fails. The
	// counter resets every time a session registers successfully.
	// Default 60; <0 retries forever.
	DialAttempts int
	// MetricsAddr, when set, serves the node's observability endpoint
	// there for the lifetime of Run: Prometheus-text /metrics with
	// per-segment gauges from the same counters heartbeats carry, plus
	// net/http/pprof for live profiling. Empty disables it.
	MetricsAddr string
	// Logf, when set, receives agent event logs.
	Logf func(format string, args ...any)

	mu    sync.Mutex
	units map[string]unitMeta // hosted instance name -> control metadata

	// obs is the node's metric registry. It always exists — hosted units
	// record latency histograms into it whether or not MetricsAddr
	// publishes them — and is shared with the data plane via node.Obs.
	obs *obs.Registry
}

// unitMeta is what the agent itself must remember about a hosted unit to
// rebuild its inventory entry: the registry type and replication identity
// the data plane does not know.
type unitMeta struct {
	typ   string // registry type ("" for splitter/merger endpoints)
	role  string
	group string
	epoch uint16 // splitter incarnation from the assign
}

// NewAgent returns an agent named name that will serve coordinator
// coordAddr, instantiating segments from reg.
func NewAgent(name, coordAddr string, reg *pipeline.Registry) *Agent {
	node := pipeline.NewNode(name, reg)
	oreg := obs.NewRegistry()
	node.Obs = oreg
	return &Agent{
		name:         name,
		coordAddr:    coordAddr,
		node:         node,
		obs:          oreg,
		ListenHost:   "127.0.0.1",
		Heartbeat:    250 * time.Millisecond,
		DrainWindow:  3 * time.Second,
		ReconnectMin: 100 * time.Millisecond,
		ReconnectMax: 2 * time.Second,
		DialAttempts: 60,
		units:        make(map[string]unitMeta),
	}
}

// Node exposes the underlying segment host for inspection.
func (a *Agent) Node() *pipeline.Node { return a.node }

// Run supervises the agent until ctx is cancelled: it dials the
// coordinator (retrying with jittered backoff, so the agent may be
// started before the coordinator is up), serves control sessions, and
// reconnects when a session drops — hosted segments keep running across
// the gap. All hosted segments are stopped on the way out, so cancelling
// ctx kills the node's share of the data plane too — this is what "node
// death" means in tests and demos. A non-nil error means the agent gave
// up: after DialAttempts consecutive failed session attempts, or at once
// when the coordinator refused its protocol version (ErrProtocolMismatch),
// which no retry can fix.
func (a *Agent) Run(ctx context.Context) error {
	defer func() { _ = a.node.StopAll() }()
	if a.MetricsAddr != "" {
		reg := a.obs
		reg.OnGather(func() { a.fillMetrics(reg) })
		bound, stop, err := obs.Serve(a.MetricsAddr, reg)
		if err != nil {
			return fmt.Errorf("river: agent %s: %w", a.name, err)
		}
		defer func() { _ = stop() }()
		a.logf("observability endpoint on http://%s/metrics", bound)
	}
	min := a.ReconnectMin
	if min <= 0 {
		min = 100 * time.Millisecond
	}
	backoff := min
	failures := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		registered, err := a.session(ctx)
		if ctx.Err() != nil {
			return nil
		}
		if errors.Is(err, ErrProtocolMismatch) {
			return err
		}
		if registered {
			failures = 0
			backoff = min
			a.logf("control session ended (%v); %d segment(s) stay up, reconnecting", err, len(a.node.Hosted()))
		} else {
			failures++
			if a.DialAttempts >= 0 && failures >= a.DialAttempts {
				return fmt.Errorf("river: agent %s: giving up after %d failed attempts: %w", a.name, failures, err)
			}
		}
		// Jittered exponential backoff between attempts.
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		backoff *= 2
		if max := a.ReconnectMax; max > 0 && backoff > max {
			backoff = max
		}
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return nil
		}
	}
}

// session runs one control session: dial, register with the hosted-unit
// inventory, then serve coordinator commands until the connection drops
// or ctx is cancelled. registered reports whether the coordinator
// accepted the registration (the supervisor's backoff-budget signal).
func (a *Agent) session(ctx context.Context) (registered bool, err error) {
	conn, err := (&net.Dialer{Timeout: 5 * time.Second}).DialContext(ctx, "tcp", a.coordAddr)
	if err != nil {
		return false, fmt.Errorf("river: agent %s: dial coordinator: %w", a.name, err)
	}
	w := newWire(conn)
	// Teardown order (LIFO): close the wire so blocked sends/reads fail,
	// signal stop so helper goroutines exit, wait for them. The hosted
	// segments are NOT touched — their lifetime belongs to Run.
	var hb sync.WaitGroup
	defer hb.Wait()
	stop := make(chan struct{})
	defer close(stop)
	defer func() { _ = w.close() }()
	// Unblock the read loop when ctx is cancelled.
	go func() {
		select {
		case <-ctx.Done():
			_ = w.close()
		case <-stop:
		}
	}()

	reg := &Message{Type: TypeRegister, Node: a.name, Ver: ProtocolVersion, Inventory: a.inventory()}
	if err := w.send(reg); err != nil {
		return false, err
	}
	// Wait for the register ack, which carries the adoption verdict for
	// our inventory. The coordinator publishes us to its reconcile loop
	// before its ack send executes, so a command (assign, redirect) can
	// legitimately arrive first — buffer those and replay them after the
	// ack's stop list has been applied, so a stop verdict can never kill
	// an instance a buffered re-assign just created.
	var ack *Message
	var pending []*Message
	for ack == nil {
		msg, err := w.recv()
		if err != nil {
			return false, fmt.Errorf("river: agent %s: register: %w", a.name, err)
		}
		if msg.Type == TypeAck {
			ack = msg
			break
		}
		pending = append(pending, msg)
	}
	if err := ackErr(ack); err != nil {
		// Typically "name already registered": the coordinator has not
		// noticed our previous session die yet. Retryable — the
		// supervisor backs off and the coordinator expires the stale
		// session by heartbeat timeout. A protocol mismatch is not; Run
		// tells them apart by the wrapped ErrProtocolMismatch.
		return false, fmt.Errorf("river: agent %s: register rejected: %w", a.name, err)
	}
	if len(reg.Inventory) > 0 {
		a.logf("re-registered with %d unit(s): %d adopted (coordinator epoch %d)",
			len(reg.Inventory), len(ack.Adopted), ack.CoordEpoch)
	}
	for _, name := range ack.StopUnits {
		if err := a.stopSegment(name); err != nil {
			a.logf("stop of unwanted unit %s: %v", name, err)
		} else {
			a.logf("stopped unwanted unit %s", name)
		}
	}
	interval := a.Heartbeat
	if ack.HeartbeatMS > 0 {
		interval = time.Duration(ack.HeartbeatMS) * time.Millisecond
	}
	intervalCh := make(chan time.Duration, 1)
	hb.Add(1)
	go func() {
		defer hb.Done()
		a.heartbeatLoop(ctx, w, interval, intervalCh, stop)
	}()

	for _, msg := range pending {
		a.dispatch(w, msg, intervalCh)
	}
	for {
		msg, err := w.recv()
		if err != nil {
			return true, fmt.Errorf("river: agent %s: control connection lost: %w", a.name, err)
		}
		a.dispatch(w, msg, intervalCh)
	}
}

// dispatch executes one coordinator command (or folds in an unsolicited
// ack's heartbeat interval) and replies.
func (a *Agent) dispatch(w *wire, msg *Message, intervalCh chan<- time.Duration) {
	switch msg.Type {
	case TypeAck:
		// Unsolicited ack (e.g. a re-sent register ack); only the
		// heartbeat interval matters.
		if msg.HeartbeatMS > 0 {
			select {
			case intervalCh <- time.Duration(msg.HeartbeatMS) * time.Millisecond:
			default:
			}
		}
	case TypeAssign:
		a.handleAssign(w, msg)
	case TypeRedirect:
		if msg.Boundary {
			// A planned drain: wait (off the control loop, so
			// heartbeat-paced commands keep flowing) for the splice to
			// land at a scope boundary before acking, so the
			// coordinator knows the old instance's stream has ended
			// cleanly when it proceeds to stop it.
			go func(msg *Message) {
				atBoundary, err := a.node.RedirectAtBoundary(msg.Seg, msg.Downstream, a.DrainWindow)
				a.reply(w, msg.ID, err, "")
				if err == nil {
					a.logf("segment %s drained to %s (boundary=%v)", msg.Seg, msg.Downstream, atBoundary)
				}
			}(msg)
			return
		}
		a.reply(w, msg.ID, a.node.Redirect(msg.Seg, msg.Downstream), "")
		a.logf("segment %s redirected to %s", msg.Seg, msg.Downstream)
	case TypeLegs:
		err := a.node.SetLegs(msg.Seg, msg.Downstreams)
		a.reply(w, msg.ID, err, "")
		if err == nil {
			a.logf("splitter %s legs now %v", msg.Seg, msg.Downstreams)
		}
	case TypeStop:
		err := a.stopSegment(msg.Seg)
		a.reply(w, msg.ID, err, "")
		if err == nil {
			a.logf("segment %s stopped", msg.Seg)
		}
	}
}

// inventory snapshots the hosted units for a register message: the data
// plane's own view of each unit's wiring (bound address, current
// downstream/legs) joined with the control metadata remembered from its
// assign (registry type, replication identity).
func (a *Agent) inventory() []UnitInventory {
	hosted := a.node.Inventory()
	stats := a.node.Stats()
	byName := make(map[string]pipeline.SegmentStats, len(stats))
	for _, s := range stats {
		byName[s.Name] = s
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]UnitInventory, 0, len(hosted))
	for _, h := range hosted {
		meta := a.units[h.Name]
		inv := UnitInventory{
			Name: h.Name, Type: meta.typ, Role: meta.role, Group: meta.group,
			Addr: h.Addr, Downstream: h.Downstream, Legs: h.Legs,
			Epoch: meta.epoch, Failed: h.Failed,
		}
		if meta.role != "" {
			inv.Type = "" // endpoints have no registry type
		}
		if s, ok := byName[h.Name]; ok {
			inv.Processed, inv.Emitted = s.Processed, s.Emitted
		}
		out = append(out, inv)
	}
	return out
}

// handleAssign hosts (or re-hosts) a segment or a fan endpoint —
// replication splitter/merger, shard partitioner/collector — per the
// message role, and acks with the bound listen address the upstream
// neighbor should dial.
func (a *Agent) handleAssign(w *wire, msg *Message) {
	// A re-assign of a name we already host replaces the instance, so a
	// coordinator retrying after a lost ack converges instead of erroring.
	a.mu.Lock()
	_, exists := a.units[msg.Seg]
	a.mu.Unlock()
	if exists {
		_ = a.stopSegment(msg.Seg)
	}
	var addr string
	var err error
	switch KindOf(msg.Role) {
	case KindFanOut:
		addr, err = a.hostFanOut(msg)
	case KindFanIn:
		addr, err = a.hostFanIn(msg)
	default:
		addr, err = a.node.Host(msg.Seg, msg.SegType, net.JoinHostPort(a.ListenHost, "0"), msg.Downstream)
	}
	if err != nil {
		a.reply(w, msg.ID, err, "")
		return
	}
	a.mu.Lock()
	a.units[msg.Seg] = unitMeta{typ: msg.SegType, role: msg.Role, group: msg.Group, epoch: msg.Epoch}
	a.mu.Unlock()
	a.reply(w, msg.ID, nil, addr)
	a.logf("hosting %s (%s) at %s -> %s%v", msg.Seg, cmp.Or(msg.Role, msg.SegType), addr, msg.Downstream, msg.Downstreams)
}

// hostFanOut runs a group's fan-out endpoint — a replication splitter or,
// for RolePartition, a shard partitioner: a streamin front tagging into a
// leg-set sink over the node's batched transport.
func (a *Agent) hostFanOut(msg *Message) (string, error) {
	in, err := pipeline.NewStreamIn(net.JoinHostPort(a.ListenHost, "0"))
	if err != nil {
		return "", err
	}
	in.QueueSize = a.node.QueueSize
	// Either sink hands its legs pool-backed copies and never retains its
	// input, so the front can decode into pooled records.
	in.Pooled = true
	var sink pipeline.Sink
	if msg.Role == RolePartition {
		sink = shard.NewPartitioner(shard.PartitionerConfig{
			Group: msg.Group, Epoch: msg.Epoch, Legs: msg.Downstreams, Flush: a.node.FlushPolicy,
		})
	} else {
		sink = replica.NewSplitter(replica.SplitterConfig{
			Group: msg.Group, Epoch: msg.Epoch, Legs: msg.Downstreams, Flush: a.node.FlushPolicy,
		})
	}
	if err := a.node.HostUnit(msg.Seg, msg.Role, in, pipeline.NewSegment(msg.Seg), sink); err != nil {
		return "", err
	}
	return in.Addr(), nil
}

// hostFanIn runs a group's fan-in endpoint — a replication merger or, for
// RoleCollect, a shard collector: a concurrent fan-in source restoring one
// ordered exactly-once stream into a single batched streamout toward the
// downstream.
func (a *Agent) hostFanIn(msg *Message) (string, error) {
	listen := net.JoinHostPort(a.ListenHost, "0")
	var src interface {
		pipeline.Source
		Addr() string
	}
	var err error
	// The downstream is a streamout, which encodes synchronously and never
	// retains records, so either source can recycle them (Pooled).
	if msg.Role == RoleCollect {
		src, err = shard.NewCollector(shard.CollectorConfig{Group: msg.Group, ListenAddr: listen, Pooled: true})
	} else {
		src, err = replica.NewMerger(replica.MergerConfig{Group: msg.Group, ListenAddr: listen, Pooled: true})
	}
	if err != nil {
		return "", err
	}
	out := pipeline.NewStreamOutBatched(msg.Downstream, a.node.FlushPolicy)
	if err := a.node.HostUnit(msg.Seg, msg.Role, src, pipeline.NewSegment(msg.Seg), out); err != nil {
		return "", err
	}
	return src.Addr(), nil
}

func (a *Agent) stopSegment(segName string) error {
	a.mu.Lock()
	delete(a.units, segName)
	a.mu.Unlock()
	return a.node.Stop(segName)
}

func (a *Agent) reply(w *wire, id uint64, err error, addr string) {
	m := &Message{Type: TypeAck, ID: id, Addr: addr}
	if err != nil {
		m.Err = err.Error()
	}
	_ = w.send(m)
}

// heartbeatLoop beats segment counters to the coordinator until the
// session ends; the interval follows the coordinator's register ack.
func (a *Agent) heartbeatLoop(ctx context.Context, w *wire, interval time.Duration, intervalCh <-chan time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		case d := <-intervalCh:
			if d > 0 && d != interval {
				interval = d
				t.Reset(d)
			}
		case <-t.C:
			if err := w.send(&Message{Type: TypeHeartbeat, Node: a.name, Segments: a.segmentStats()}); err != nil {
				return
			}
		}
	}
}

// segmentStats snapshots the hosted segments' counters for a heartbeat.
func (a *Agent) segmentStats() []SegmentStatus {
	stats := a.node.Stats()
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]SegmentStatus, len(stats))
	for i, s := range stats {
		meta := a.units[s.Name]
		out[i] = SegmentStatus{
			Name:       s.Name,
			Type:       cmp.Or(meta.role, meta.typ), // endpoints have no registry type
			Addr:       s.Addr,
			Processed:  s.Processed,
			Emitted:    s.Emitted,
			Conns:      s.Conns,
			BadCloses:  s.BadCloses,
			Corrupt:    s.Corrupt,
			QueueDepth: s.QueueDepth,
			QueueCap:   s.QueueCap,
			QueuePeak:  s.QueuePeak,
			RecordsOut: s.RecordsOut,
			BatchesOut: s.BatchesOut,
			BytesOut:   s.BytesOut,
			Role:       s.Role,
			Legs:       s.Legs,
			LegDrops:   s.LegDrops,
			Dups:       s.Dups,
			Skipped:    s.Skipped,
			Untagged:   s.Untagged,
			Alerts:     s.Alerts,
			LatP50Us:   s.LatP50Us,
			LatP95Us:   s.LatP95Us,
			LatP99Us:   s.LatP99Us,
			E2eP50Us:   s.E2eP50Us,
			E2eP95Us:   s.E2eP95Us,
			E2eP99Us:   s.E2eP99Us,
			Failed:     s.Failed,
			Err:        s.Err,
		}
	}
	return out
}

// fillMetrics recomputes the agent's per-segment gauges from a live
// stats snapshot at scrape time — the node-local view of the same
// counters heartbeats ship to the coordinator.
func (a *Agent) fillMetrics(reg *obs.Registry) {
	stats := a.node.Stats()
	reg.DropPrefix("dynriver_agent_segment_")
	reg.Gauge("dynriver_agent_segments", "node", a.name).Set(float64(len(stats)))
	for _, s := range stats {
		l := []string{"node", a.name, "segment", s.Name}
		reg.Gauge("dynriver_agent_segment_processed", l...).Set(float64(s.Processed))
		reg.Gauge("dynriver_agent_segment_emitted", l...).Set(float64(s.Emitted))
		reg.Gauge("dynriver_agent_segment_queue_depth", l...).Set(float64(s.QueueDepth))
		reg.Gauge("dynriver_agent_segment_queue_cap", l...).Set(float64(s.QueueCap))
		reg.Gauge("dynriver_agent_segment_queue_peak", l...).Set(float64(s.QueuePeak))
		reg.Gauge("dynriver_agent_segment_lag", l...).Set(float64(s.Lag))
		reg.Gauge("dynriver_agent_segment_records_out", l...).Set(float64(s.RecordsOut))
		reg.Gauge("dynriver_agent_segment_leg_drops", l...).Set(float64(s.LegDrops))
		reg.Gauge("dynriver_agent_segment_gap_skips", l...).Set(float64(s.Skipped))
		reg.Gauge("dynriver_agent_segment_alerts", l...).Set(float64(s.Alerts))
		reg.Gauge("dynriver_agent_segment_corrupt_batches", l...).Set(float64(s.Corrupt))
		// Latency quantile snapshots in seconds, from the same histograms
		// the registry also exposes in full (dynriver_unit_latency_seconds).
		if s.LatP99Us > 0 {
			reg.Gauge("dynriver_agent_segment_latency_p50_seconds", l...).Set(float64(s.LatP50Us) / 1e6)
			reg.Gauge("dynriver_agent_segment_latency_p95_seconds", l...).Set(float64(s.LatP95Us) / 1e6)
			reg.Gauge("dynriver_agent_segment_latency_p99_seconds", l...).Set(float64(s.LatP99Us) / 1e6)
		}
		if s.E2eP99Us > 0 {
			reg.Gauge("dynriver_agent_segment_e2e_latency_p50_seconds", l...).Set(float64(s.E2eP50Us) / 1e6)
			reg.Gauge("dynriver_agent_segment_e2e_latency_p95_seconds", l...).Set(float64(s.E2eP95Us) / 1e6)
			reg.Gauge("dynriver_agent_segment_e2e_latency_p99_seconds", l...).Set(float64(s.E2eP99Us) / 1e6)
		}
	}
}

func (a *Agent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf("agent %s: "+format, append([]any{a.name}, args...)...)
	}
}
