package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/record"
)

// OperatorFactory builds a fresh operator chain for a segment. Dynamic
// recomposition instantiates segments from factories because operator
// instances carry processing state that must not be shared between hosts.
type OperatorFactory func() []Operator

// Registry maps segment type names to operator factories, letting any node
// instantiate any segment of the application. It is safe for concurrent
// use.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]OperatorFactory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]OperatorFactory)}
}

// Register adds a segment factory under a type name, replacing any
// previous registration.
func (r *Registry) Register(segType string, f OperatorFactory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factories[segType] = f
}

// Build instantiates the operator chain for a segment type.
func (r *Registry) Build(segType string) ([]Operator, error) {
	r.mu.RLock()
	f, ok := r.factories[segType]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pipeline: unknown segment type %q", segType)
	}
	return f(), nil
}

// Node hosts pipeline segments on one (possibly remote) machine. Each
// hosted segment listens for upstream records via streamin, runs its
// operator chain, and forwards results via streamout. Nodes are the unit
// the coordinator moves segments between.
type Node struct {
	name string
	reg  *Registry

	// FlushPolicy is the batch framing policy applied to hosted segments'
	// streamout sinks. NewNode defaults it to record.DefaultBatchConfig
	// (the batched hot path); set before Host to override.
	FlushPolicy record.BatchConfig
	// QueueSize bounds hosted segments' streamin emit queues (default
	// DefaultQueueSize); set before Host to override.
	QueueSize int
	// Obs, when set before hosting, gives every hosted unit a latency
	// tracer writing per-unit and end-to-end histograms into this
	// registry (see LatencyTracer); quantile snapshots then appear in
	// Stats. Nil disables tracing.
	Obs *obs.Registry

	mu     sync.Mutex
	hosted map[string]*hostedSegment
}

// hostedSegment is one running source→segment→sink unit. Plain segments
// pair a StreamIn with a StreamOut; replication endpoints substitute a
// splitter sink or merger source, so src and sink are held by interface
// and the optional capabilities (address, counters, redirect) are
// discovered by assertion.
type hostedSegment struct {
	role   string // "" plain, "split", "merge"
	seg    *Segment
	src    Source
	sink   Sink
	tracer *LatencyTracer // nil unless the node has an obs registry
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// Optional capabilities of hosted sources and sinks, discovered by
// assertion so the node can host any endpoint shape uniformly.
type (
	addrProvider interface{ Addr() string }
	ingressStats interface {
		Connections() uint64
		BadCloses() uint64
	}
	queueStats     interface{ QueueDepth() (int, int) }
	queuePeakStats interface{ QueuePeak() int }
	corruptStats   interface{ CorruptBatches() uint64 }
	egressStats    interface {
		RecordsOut() uint64
		BatchesOut() uint64
		BytesOut() uint64
	}
	redirectSink interface{ Redirect(addr string) }
	boundarySink interface {
		RedirectAtBoundary(addr string, wait time.Duration) bool
	}
	legSink interface{ SetLegs(addrs []string) }
	closer  interface{ Close() error }
	// targetProvider exposes a sink's current downstream address (the last
	// redirect target); legProvider a splitter's current fan-out set.
	targetProvider interface{ Target() string }
	legProvider    interface{ Legs() []string }
)

// EndpointStatser lets a hosted source or sink contribute role-specific
// telemetry (replication legs, dedup counters) to its SegmentStats
// snapshot.
type EndpointStatser interface {
	FillStats(s *SegmentStats)
}

// NewNode returns a node that instantiates segments from reg. Hosted
// segments use the batched transport defaults (batch framing on streamout,
// a bounded emit queue on streamin); override FlushPolicy/QueueSize before
// Host to change that.
func NewNode(name string, reg *Registry) *Node {
	return &Node{
		name:        name,
		reg:         reg,
		FlushPolicy: record.DefaultBatchConfig(),
		QueueSize:   DefaultQueueSize,
		hosted:      make(map[string]*hostedSegment),
	}
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Hosted returns the names of segments currently hosted.
func (n *Node) Hosted() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.hosted))
	for k := range n.hosted {
		out = append(out, k)
	}
	return out
}

// Host instantiates segment type segType under the instance name segName,
// listening on listenAddr (":0" for ephemeral) and forwarding to
// downstreamAddr. It returns the bound listen address that upstream
// should dial.
func (n *Node) Host(segName, segType, listenAddr, downstreamAddr string) (string, error) {
	ops, err := n.reg.Build(segType)
	if err != nil {
		return "", err
	}
	in, err := NewStreamIn(listenAddr)
	if err != nil {
		return "", err
	}
	in.QueueSize = n.QueueSize
	// Hosted chains end in a streamout, which copies records into its
	// batch buffer synchronously — safe for pooled, recycled records.
	in.Pooled = true
	out := NewStreamOutBatched(downstreamAddr, n.FlushPolicy)
	if err := n.HostUnit(segName, "", in, NewSegment(segName, ops...), out); err != nil {
		return "", err
	}
	return in.Addr(), nil
}

// HostUnit hosts an arbitrary source → segment → sink unit under name —
// the entry point the replication subsystem uses to run splitter and
// merger endpoints on a node with the same lifecycle, stats and control
// verbs as ordinary segments. role tags the unit in stats ("" for plain
// segments). The source and sink are closed when the unit stops.
func (n *Node) HostUnit(name, role string, src Source, seg *Segment, sink Sink) error {
	ctx, cancel := context.WithCancel(context.Background())
	h := &hostedSegment{role: role, seg: seg, src: src, sink: sink,
		cancel: cancel, done: make(chan struct{})}
	h.tracer = NewLatencyTracer(n.Obs, name)

	n.mu.Lock()
	if _, exists := n.hosted[name]; exists {
		n.mu.Unlock()
		cancel()
		closeEndpoint(src)
		closeEndpoint(sink)
		return fmt.Errorf("pipeline: node %s already hosts %q", n.name, name)
	}
	n.hosted[name] = h
	n.mu.Unlock()

	go func() {
		defer close(h.done)
		p := New().SetSource(src).Append(seg).SetSink(sink)
		p.Tracer = h.tracer
		err := p.Run(ctx)
		if err != nil && !errors.Is(err, ErrStopped) && !errors.Is(err, context.Canceled) {
			h.err = err
		}
		closeEndpoint(src)
		closeEndpoint(sink)
	}()
	return nil
}

func closeEndpoint(v any) {
	if c, ok := v.(closer); ok {
		_ = c.Close()
	}
}

// SegmentStats is a point-in-time snapshot of one hosted segment's
// counters, reported by node agents in control-plane heartbeats.
type SegmentStats struct {
	Name      string // segment instance name
	Addr      string // bound streamin address upstream dials
	Processed uint64 // records consumed by the operator chain
	Emitted   uint64 // records produced by the operator chain
	Conns     uint64 // upstream connections served
	BadCloses uint64 // BadCloseScope repairs synthesized on ingest
	// Corrupt counts corrupt v2 batch frames the ingest decoder dropped
	// whole (bad batch CRC or inconsistent structure after a valid
	// header); each drop loses exactly that batch and the reader re-syncs
	// on the next frame. Nonzero means the link or a peer is damaging
	// bytes in flight.
	Corrupt uint64
	// Lag is the cumulative processed−emitted delta (saturating at 0).
	// For record-for-record operators it approximates backlog; for
	// filtering segments (the extraction chain discards most records by
	// design) it grows steadily on a healthy instance, so consumers must
	// treat it as a coarse signal — QueueDepth is the saturation gauge.
	Lag uint64
	// QueueDepth/QueueCap expose the streamin emit-queue backlog and its
	// bound, both in records across the queued runs; depth near cap means
	// the operator chain is saturated.
	// QueuePeak is the backlog's high-water mark since the instance
	// started — it catches transient saturation the instantaneous depth
	// snapshot misses.
	QueueDepth int
	QueueCap   int
	QueuePeak  int
	// RecordsOut/BatchesOut/BytesOut count what the segment's streamout
	// has flushed to the wire.
	RecordsOut uint64
	BatchesOut uint64
	BytesOut   uint64
	// Role marks replication endpoints ("split", "merge"); empty for
	// ordinary segments. The remaining counters are role-specific.
	Role string
	// Legs is a splitter's live fan-out legs, or a merger's live upstream
	// connections.
	Legs int
	// LegDrops counts records a splitter dropped toward a saturated or
	// dead leg (the other replicas still carried them).
	LegDrops uint64
	// Dups counts duplicate replica copies a merger discarded; Skipped
	// counts records lost across an all-leg failure (the merger skipped
	// the gap to keep the stream flowing); Untagged counts records
	// discarded for carrying no usable replication tag.
	Dups     uint64
	Skipped  uint64
	Untagged uint64
	// Alerts counts alarms raised by detector operators in the segment's
	// chain (see ops.ChangeDetect); zero for chains without detectors.
	Alerts uint64
	// LatP50Us/LatP95Us/LatP99Us are quantile snapshots, in microseconds,
	// of the unit latency histogram (local ingress to sink stage); zero
	// on an untraced node. E2eP50Us/E2eP95Us/E2eP99Us are the same for
	// the end-to-end trace-probe series, zero until probes arrive.
	LatP50Us uint64
	LatP95Us uint64
	LatP99Us uint64
	E2eP50Us uint64
	E2eP95Us uint64
	E2eP99Us uint64
	// Failed reports that the segment's pipeline exited on its own — an
	// operator error, not a Stop — and the instance is no longer
	// processing; Err carries the cause. A control plane treats this as
	// the segment needing re-placement even though the node is healthy.
	Failed bool
	Err    string
}

// AlertCounter is implemented by operators that raise alerts (detector
// operators); Stats sums alert counts across a segment's chain.
type AlertCounter interface {
	Alerts() uint64
}

// Stats snapshots the counters of every hosted segment, sorted by name.
func (n *Node) Stats() []SegmentStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]SegmentStats, 0, len(n.hosted))
	for name, h := range n.hosted {
		s := SegmentStats{
			Name:      name,
			Role:      h.role,
			Processed: h.seg.Processed(),
			Emitted:   h.seg.Emitted(),
		}
		if ap, ok := h.src.(addrProvider); ok {
			s.Addr = ap.Addr()
		}
		if is, ok := h.src.(ingressStats); ok {
			s.Conns = is.Connections()
			s.BadCloses = is.BadCloses()
		}
		if qs, ok := h.src.(queueStats); ok {
			s.QueueDepth, s.QueueCap = qs.QueueDepth()
		}
		if qp, ok := h.src.(queuePeakStats); ok {
			s.QueuePeak = qp.QueuePeak()
		}
		if cs, ok := h.src.(corruptStats); ok {
			s.Corrupt = cs.CorruptBatches()
		}
		if es, ok := h.sink.(egressStats); ok {
			s.RecordsOut = es.RecordsOut()
			s.BatchesOut = es.BatchesOut()
			s.BytesOut = es.BytesOut()
		}
		if p, e := s.Processed, s.Emitted; p > e {
			s.Lag = p - e
		}
		if fs, ok := h.src.(EndpointStatser); ok {
			fs.FillStats(&s)
		}
		if fs, ok := h.sink.(EndpointStatser); ok {
			fs.FillStats(&s)
		}
		for _, op := range h.seg.ops {
			if ac, ok := op.(AlertCounter); ok {
				s.Alerts += ac.Alerts()
			}
		}
		if t := h.tracer; t != nil {
			s.LatP50Us = uint64(t.UnitQuantile(0.50) * 1e6)
			s.LatP95Us = uint64(t.UnitQuantile(0.95) * 1e6)
			s.LatP99Us = uint64(t.UnitQuantile(0.99) * 1e6)
			if t.E2ECount() > 0 {
				s.E2eP50Us = uint64(t.E2EQuantile(0.50) * 1e6)
				s.E2eP95Us = uint64(t.E2EQuantile(0.95) * 1e6)
				s.E2eP99Us = uint64(t.E2EQuantile(0.99) * 1e6)
			}
		}
		select {
		case <-h.done:
			// Still in the hosted map but its pipeline has exited: the
			// segment died rather than being stopped.
			s.Failed = true
			if h.err != nil {
				s.Err = h.err.Error()
			}
		default:
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HostedUnit is one hosted unit's identity and wiring as the data plane
// itself knows it: the bound ingress address upstream peers dial, and the
// downstream target(s) the egress was last pointed at. A node agent
// reports this inventory when it (re-)registers, so a control plane that
// lost its session — or was restarted entirely — can reconcile against
// what is actually running instead of re-placing from scratch.
type HostedUnit struct {
	Name string // hosted instance name
	Role string // "" plain, "split", "merge"
	Addr string // bound listen address upstream dials
	// Downstream is the egress sink's current target (segments, mergers);
	// Legs the current fan-out set (splitters). Exactly one is set.
	Downstream string
	Legs       []string
	// Failed marks a unit whose pipeline has already exited on its own.
	Failed bool
}

// Inventory snapshots every hosted unit's wiring, sorted by name.
func (n *Node) Inventory() []HostedUnit {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]HostedUnit, 0, len(n.hosted))
	for name, h := range n.hosted {
		u := HostedUnit{Name: name, Role: h.role}
		if ap, ok := h.src.(addrProvider); ok {
			u.Addr = ap.Addr()
		}
		if tp, ok := h.sink.(targetProvider); ok {
			u.Downstream = tp.Target()
		}
		if lp, ok := h.sink.(legProvider); ok {
			u.Legs = lp.Legs()
		}
		select {
		case <-h.done:
			u.Failed = true
		default:
		}
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Redirect switches the downstream address a hosted segment forwards to.
// The control plane uses it to splice an upstream segment onto a re-placed
// successor without restarting the upstream instance.
func (n *Node) Redirect(segName, downstreamAddr string) error {
	n.mu.Lock()
	h, ok := n.hosted[segName]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("pipeline: node %s does not host %q", n.name, segName)
	}
	rs, ok := h.sink.(redirectSink)
	if !ok {
		return fmt.Errorf("pipeline: segment %q sink is not redirectable", segName)
	}
	rs.Redirect(downstreamAddr)
	return nil
}

// RedirectAtBoundary switches a hosted segment's downstream at the next
// top-level scope boundary (the planned-drain splice), waiting up to wait
// before falling back to an immediate redirect. It reports whether the
// switch happened at a boundary.
func (n *Node) RedirectAtBoundary(segName, downstreamAddr string, wait time.Duration) (bool, error) {
	n.mu.Lock()
	h, ok := n.hosted[segName]
	n.mu.Unlock()
	if !ok {
		return false, fmt.Errorf("pipeline: node %s does not host %q", n.name, segName)
	}
	bs, ok := h.sink.(boundarySink)
	if !ok {
		return false, fmt.Errorf("pipeline: segment %q sink cannot redirect at a boundary", segName)
	}
	return bs.RedirectAtBoundary(downstreamAddr, wait), nil
}

// SetLegs replaces the fan-out leg set of a hosted replication splitter.
// The control plane uses it to drop a dead replica's leg and splice a
// re-placed one in without touching the upstream stream.
func (n *Node) SetLegs(segName string, addrs []string) error {
	n.mu.Lock()
	h, ok := n.hosted[segName]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("pipeline: node %s does not host %q", n.name, segName)
	}
	ls, ok := h.sink.(legSink)
	if !ok {
		return fmt.Errorf("pipeline: segment %q is not a splitter", segName)
	}
	ls.SetLegs(addrs)
	return nil
}

// Stop gracefully stops a hosted segment: its sink closes, its listener
// closes and the in-flight connection is cut, and the segment's resources
// are released. It blocks until the segment has fully unwound and returns
// any processing error it raised.
//
// The sink closes first, so a stopped unit sends nothing once Stop has
// begun, as a killed node would: the scopes its streamin still had open
// are not closed by its own BadCloseScope repairs (which could only
// reach part of a fan-in's legs, untagged) but by the unit downstream,
// which sees the cut connection. Closing the sink first also unblocks a
// Consume stuck redialling an unreachable downstream, which watches only
// the StreamOut's own context.
func (n *Node) Stop(segName string) error {
	n.mu.Lock()
	h, ok := n.hosted[segName]
	if ok {
		delete(n.hosted, segName)
	}
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("pipeline: node %s does not host %q", n.name, segName)
	}
	closeEndpoint(h.sink)
	h.cancel()
	closeEndpoint(h.src)
	<-h.done
	return h.err
}

// StopAll stops every hosted segment, returning the first error.
func (n *Node) StopAll() error {
	var first error
	for _, name := range n.Hosted() {
		if err := n.Stop(name); err != nil && first == nil {
			first = err
		}
	}
	return first
}
