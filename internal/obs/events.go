package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event types emitted by the control plane. The set is part of the
// protocol surface: events travel the wire verbatim in watch_events
// sessions, so renaming one is a protocol change.
const (
	// EventRegister: a node agent registered (Node).
	EventRegister = "register"
	// EventReject: a session was refused because the peer announced a
	// different protocol version, or none (Node when the peer named
	// itself, Value is the peer's version, Detail the session type).
	EventReject = "reject"
	// EventAdopt: a re-registering agent's live unit was adopted into the
	// desired state instead of being re-placed (Unit, Node).
	EventAdopt = "adopt"
	// EventFailover: a node was declared dead and its units freed for
	// re-placement (Node, Detail lists the lost units).
	EventFailover = "failover"
	// EventPlace: a unit was placed for the first time (Unit, Node, Addr).
	EventPlace = "place"
	// EventReplace: a previously placed unit was placed again — the
	// recovery half of a failover or a failed segment (Unit, Node, Addr).
	EventReplace = "replace"
	// EventRedirect: a live unit's stream was spliced to a new downstream
	// (Unit, Addr is the new target).
	EventRedirect = "redirect"
	// EventLegs: a live splitter's fan-out leg set changed (Unit, Value is
	// the new leg count).
	EventLegs = "legs"
	// EventDrain: a planned zero-repair move of Unit began (Node is the
	// destination, Detail the source node).
	EventDrain = "drain"
	// EventDrained: the planned move of Unit completed (Node, Addr).
	EventDrained = "drained"
	// EventEntry: a pipeline's entry address moved (Pipeline, Addr).
	EventEntry = "entry"
	// EventPipelineAdd / EventPipelineRemove: a pipeline was added to or
	// removed from the registry at runtime (Pipeline).
	EventPipelineAdd    = "pipeline_add"
	EventPipelineRemove = "pipeline_remove"
	// EventSegmentFailed: a hosted instance's pipeline exited on its own
	// while its node stayed healthy (Unit, Node, Detail the cause).
	EventSegmentFailed = "segment_failed"
	// EventLegDrop: a splitter dropped records toward a saturated or dead
	// leg since the last heartbeat (Unit, Node, Value is the delta).
	EventLegDrop = "leg_drop"
	// EventGapSkip: a merger skipped a sequence gap — records lost across
	// an all-leg failure (Unit, Node, Value is the delta).
	EventGapSkip = "gap_skip"
	// EventAnomaly: the self-monitoring detectors flagged a node telemetry
	// series as anomalous (Node, Metric, Value, Score) — typically before
	// any failure detection fires.
	EventAnomaly = "anomaly"
	// EventRemediation: the remediation policy acted on — or deliberately
	// declined to act on — an anomaly (Node, Phase is one of
	// triggered/started/completed/suppressed, Detail the reason or the
	// units moved).
	EventRemediation = "remediation"
	// EventAlert: a detector operator embedded in the data plane alarmed
	// on the stream it processes (Unit, Node, Value is the alert-count
	// delta since the last heartbeat).
	EventAlert = "alert"
	// EventAutoscale: the shard autoscaler evaluated — or acted on — a
	// sharded group's saturation (Pipeline, Unit is the group, Metric
	// "saturation", Value, Phase is one of triggered/scale_out/scale_in/
	// suppressed, Detail the K transition or the suppression reason).
	EventAutoscale = "autoscale"
	// EventCorruption: an ingest decoder dropped corrupt batch frames —
	// bytes damaged on the link or by a peer; each drop lost exactly one
	// batch and the stream re-synced (Unit, Node, Value is the
	// dropped-batch delta since the last heartbeat).
	EventCorruption = "corruption"
)

// Remediation phases carried in Event.Phase on EventRemediation events.
const (
	// RemPhaseTriggered: an anomaly passed the policy filters and a
	// remediation was scheduled.
	RemPhaseTriggered = "triggered"
	// RemPhaseStarted: the drain of the flagged node's units began.
	RemPhaseStarted = "started"
	// RemPhaseCompleted: every drained unit settled on its new node.
	RemPhaseCompleted = "completed"
	// RemPhaseSuppressed: the policy declined to act (cooldown,
	// concurrency cap, drain already in flight, observe/dry-run mode);
	// Detail names the reason.
	RemPhaseSuppressed = "suppressed"
)

// Autoscale phases carried in Event.Phase on EventAutoscale events.
const (
	// AsPhaseTriggered: a shard group's saturation left the target band
	// for the sustain window and a resize was considered.
	AsPhaseTriggered = "triggered"
	// AsPhaseScaleOut: the group's live K grew; Detail carries the
	// transition ("K 2 -> 4").
	AsPhaseScaleOut = "scale_out"
	// AsPhaseScaleIn: the group's live K shrank.
	AsPhaseScaleIn = "scale_in"
	// AsPhaseSuppressed: the autoscaler declined to act (cooldown, K
	// bound reached, a drain or resize in flight); Detail names the
	// reason.
	AsPhaseSuppressed = "suppressed"
)

// Event is one typed control-plane transition. The JSON schema is stable
// (locked by a golden test): new fields may be added, existing ones not
// renamed, so `dynriver events -json` stays scriptable across versions.
type Event struct {
	// Seq is the event's position in the coordinator's log, monotonically
	// increasing from 1; gaps in a filtered stream are normal.
	Seq uint64 `json:"seq"`
	// TimeMS is the wall-clock append time in Unix milliseconds.
	TimeMS int64 `json:"time_ms"`
	// Type is one of the Event* constants above.
	Type string `json:"type"`
	// Pipeline scopes the event to one pipeline ("" = the default
	// pipeline or a cluster-wide event such as register/failover).
	Pipeline string `json:"pipeline,omitempty"`
	// Unit is the scoped placement unit name the event concerns.
	Unit string `json:"unit,omitempty"`
	// Node names the agent the event concerns.
	Node string `json:"node,omitempty"`
	// Addr carries an address when the event moved one.
	Addr string `json:"addr,omitempty"`
	// Metric and Value carry the measurement behind telemetry-derived
	// events (anomaly, leg_drop, gap_skip).
	Metric string  `json:"metric,omitempty"`
	Value  float64 `json:"value,omitempty"`
	// Score is the detector score that flagged an anomaly.
	Score float64 `json:"score,omitempty"`
	// Detail is free-form human context.
	Detail string `json:"detail,omitempty"`
	// Phase subdivides multi-step event types (remediation:
	// triggered/started/completed/suppressed; autoscale likewise).
	Phase string `json:"phase,omitempty"`
}

// Subscription is one live follower of an EventLog. Events are delivered
// on C; when the subscriber cannot keep up the oldest undelivered events
// are dropped (Dropped counts them) so appenders never block on a slow
// consumer. The bounded channel is the whole flow-control story: a
// stalled follower costs the appender one failed non-blocking send, never
// a wait.
type Subscription struct {
	C       chan Event
	dropped atomic.Uint64
	// DropCounter, when set (before the first Append can race with it —
	// i.e. between Subscribe and handing the subscription to a consumer),
	// is additionally incremented on every dropped event, so slow-follower
	// loss is visible on a metrics endpoint and not only to the follower
	// itself.
	DropCounter *Counter
}

// EventLog is a bounded in-memory ring of control-plane events with
// monotonic sequence numbers and live subscriptions. Appends are cheap
// and never block; the ring keeps the most recent Cap events for
// backlog queries (Since) while subscribers follow the live tail.
type EventLog struct {
	mu   sync.Mutex
	buf  []Event // ring storage
	next uint64  // seq the next append gets (starts at 1)
	len  int     // occupied slots
	head int     // index of the oldest event
	subs map[*Subscription]struct{}
}

// DefaultEventCapacity is the ring size NewEventLog uses for capacity<=0.
const DefaultEventCapacity = 1024

// NewEventLog returns an event log retaining the most recent capacity
// events (DefaultEventCapacity when capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{
		buf:  make([]Event, capacity),
		next: 1,
		subs: make(map[*Subscription]struct{}),
	}
}

// Append stamps e with the next sequence number (and the current time,
// when TimeMS is zero), stores it in the ring and delivers it to every
// subscription. It returns the stamped event.
func (l *EventLog) Append(e Event) Event {
	if l == nil {
		return e
	}
	if e.TimeMS == 0 {
		e.TimeMS = time.Now().UnixMilli()
	}
	l.mu.Lock()
	e.Seq = l.next
	l.next++
	if l.len < len(l.buf) {
		l.buf[(l.head+l.len)%len(l.buf)] = e
		l.len++
	} else {
		l.buf[l.head] = e
		l.head = (l.head + 1) % len(l.buf)
	}
	for s := range l.subs {
		select {
		case s.C <- e:
		default:
			s.dropped.Add(1)
			s.DropCounter.Inc()
		}
	}
	l.mu.Unlock()
	return e
}

// Since returns the retained events with Seq > after that satisfy match
// (nil matches everything), oldest first.
func (l *EventLog) Since(after uint64, match func(Event) bool) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.len)
	for i := 0; i < l.len; i++ {
		e := l.buf[(l.head+i)%len(l.buf)]
		if e.Seq <= after {
			continue
		}
		if match == nil || match(e) {
			out = append(out, e)
		}
	}
	return out
}

// Subscribe registers a live follower whose channel buffers up to buffer
// events (minimum 1). The caller must drain the channel and eventually
// Unsubscribe.
func (l *EventLog) Subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscription{C: make(chan Event, buffer)}
	l.mu.Lock()
	l.subs[s] = struct{}{}
	l.mu.Unlock()
	return s
}

// Unsubscribe removes a follower. Its channel is not closed (a late
// Append may still be holding a reference); the follower simply stops
// receiving.
func (l *EventLog) Unsubscribe(s *Subscription) {
	if l == nil || s == nil {
		return
	}
	l.mu.Lock()
	delete(l.subs, s)
	l.mu.Unlock()
}
