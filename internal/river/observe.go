package river

import (
	"strings"

	"repro/internal/obs"
)

// This file wires the coordinator into the obs layer: metric handles for
// its internals, the control-plane event log, the rollup that turns a
// cluster snapshot into per-node/per-pipeline gauges at scrape time, and
// the watch_events protocol session.

// Coordinator metric names. The rollup prefixes are dropped and rebuilt
// on every scrape so series for departed nodes and removed pipelines do
// not linger.
const (
	metricNodePrefix     = "dynriver_node_"
	metricPipelinePrefix = "dynriver_pipeline_"
)

// setupObs creates the coordinator's registry and event log and registers
// the scrape-time rollup. Called once from NewCoordinator before any
// loop starts.
func (c *Coordinator) setupObs() {
	c.reg = obs.NewRegistry()
	// The ring bounds how much backlog a late watch_events subscriber
	// can fetch.
	c.events = obs.NewEventLog(obs.DefaultEventCapacity)
	c.reg.Help("dynriver_coord_epoch", "coordinator incarnation (advances on restart from journaled state)")
	c.reg.Help("dynriver_coord_events_total", "control-plane events appended, by type")
	c.reg.Help("dynriver_journal_fsync_seconds", "group-commit journal fsync latency")
	c.reg.Help("dynriver_reconcile_seconds", "duration of one reconcile pass")
	// Touch the coordinator-internals families so a scrape before the
	// first event/append/pass still lists them.
	c.recDur = c.reg.Histogram("dynriver_reconcile_seconds", nil)
	c.k.st.jAppends = c.reg.Counter("dynriver_journal_appends_total")
	c.k.st.jFsync = c.reg.Histogram("dynriver_journal_fsync_seconds", nil)
	c.reg.OnGather(func() {
		var st *ClusterStatus
		entry := 0
		c.call(func() { st, entry = c.k.status(), len(c.watchers) })
		rollupStatus(c.reg, st)
		c.reg.Gauge("dynriver_coord_watchers", "kind", "entry").Set(float64(entry))
		c.reg.Gauge("dynriver_coord_watchers", "kind", "events").Set(float64(c.evWatchers.Load()))
	})
}

// event appends one control-plane event to the log (deriving its
// pipeline from the scoped unit name when unset) and counts it by type.
func (c *Coordinator) event(e obs.Event) {
	if e.Pipeline == "" && e.Unit != "" {
		if i := strings.IndexByte(e.Unit, ':'); i >= 0 {
			e.Pipeline = e.Unit[:i]
		}
	}
	c.events.Append(e)
	c.reg.Counter("dynriver_coord_events_total", "type", e.Type).Inc()
}

// Events exposes the coordinator's event log (for in-process consumers
// and tests; remote consumers use the watch_events verb).
func (c *Coordinator) Events() *obs.EventLog { return c.events }

// MetricsAddr returns the bound observability endpoint address, or ""
// when Config.MetricsAddr was unset.
func (c *Coordinator) MetricsAddr() string { return c.metricsAddr }

// rollupStatus recomputes the per-node and per-pipeline gauges from a
// cluster snapshot. It drops the previous rollup first, so gauges for
// nodes that died and pipelines that were removed disappear from the
// scrape instead of freezing at their last value. Pure over its inputs,
// so the heartbeat-aggregation tests can drive it with synthetic
// snapshots.
func rollupStatus(reg *obs.Registry, st *ClusterStatus) {
	reg.DropPrefix(metricNodePrefix)
	reg.DropPrefix(metricPipelinePrefix)
	reg.Gauge("dynriver_coord_epoch").Set(float64(st.Epoch))
	reg.Gauge("dynriver_coord_nodes").Set(float64(len(st.Nodes)))
	reg.Gauge("dynriver_coord_pipelines").Set(float64(len(st.Pipelines)))
	for _, n := range st.Nodes {
		var depth, qcap, peak, lag, legDrops, skipped, dups, alerts, corrupt float64
		var latP99, e2eP99 float64 // worst across the node's segments, seconds
		for _, s := range n.Segments {
			depth += float64(s.QueueDepth)
			qcap += float64(s.QueueCap)
			peak += float64(s.QueuePeak)
			lag += float64(s.LagValue())
			legDrops += float64(s.LegDrops)
			skipped += float64(s.Skipped)
			dups += float64(s.Dups)
			alerts += float64(s.Alerts)
			corrupt += float64(s.Corrupt)
			if v := float64(s.LatP99Us) / 1e6; v > latP99 {
				latP99 = v
			}
			if v := float64(s.E2eP99Us) / 1e6; v > e2eP99 {
				e2eP99 = v
			}
		}
		l := []string{"node", n.Name}
		reg.Gauge(metricNodePrefix+"segments", l...).Set(float64(len(n.Segments)))
		reg.Gauge(metricNodePrefix+"queue_depth", l...).Set(depth)
		reg.Gauge(metricNodePrefix+"queue_cap", l...).Set(qcap)
		reg.Gauge(metricNodePrefix+"queue_peak", l...).Set(peak)
		reg.Gauge(metricNodePrefix+"lag", l...).Set(lag)
		reg.Gauge(metricNodePrefix+"leg_drops", l...).Set(legDrops)
		reg.Gauge(metricNodePrefix+"gap_skips", l...).Set(skipped)
		reg.Gauge(metricNodePrefix+"dups", l...).Set(dups)
		reg.Gauge(metricNodePrefix+"alerts", l...).Set(alerts)
		reg.Gauge(metricNodePrefix+"corrupt_batches", l...).Set(corrupt)
		reg.Gauge(metricNodePrefix+"latency_p99_seconds", l...).Set(latP99)
		reg.Gauge(metricNodePrefix+"e2e_latency_p99_seconds", l...).Set(e2eP99)
		reg.Gauge(metricNodePrefix+"last_beat_ms", l...).Set(float64(n.LastBeatMS))
	}
	for _, p := range st.Pipelines {
		placed := 0
		for _, pl := range p.Placements {
			if pl.Placed {
				placed++
			}
		}
		l := []string{"pipeline", p.ID}
		reg.Gauge(metricPipelinePrefix+"units", l...).Set(float64(len(p.Placements)))
		reg.Gauge(metricPipelinePrefix+"placed", l...).Set(float64(placed))
	}
}

// eventMatcher builds the pipeline filter a watch_events subscription
// asked for: "" follows everything; a pipeline ID follows that pipeline's
// events plus the cluster-wide ones (register, failover, anomaly) that
// carry no pipeline.
func eventMatcher(pipe string) func(obs.Event) bool {
	if pipe == "" {
		return nil
	}
	return func(e obs.Event) bool { return e.Pipeline == pipe || e.Pipeline == "" }
}

// serveEventWatcher runs one watch_events session: the
// retained backlog with Seq > SinceSeq, then — in follow mode — the live
// stream until the client disconnects. Non-follow sessions end with an
// ack after the backlog.
func (c *Coordinator) serveEventWatcher(w *wire, first *Message) {
	match := eventMatcher(first.Pipeline)
	last := first.SinceSeq
	if !first.Follow {
		backlog := c.events.Since(last, match)
		if len(backlog) > 0 {
			if err := w.send(&Message{Type: TypeEvent, Events: backlog}); err != nil {
				return
			}
		}
		_ = w.send(&Message{Type: TypeAck, ID: first.ID})
		return
	}
	// Subscribe before draining the backlog so no event falls between the
	// two; the seq check below drops the overlap. The queue is bounded: a
	// stalled client loses events (counted per subscriber below) instead
	// of blocking the coordinator's event append path.
	sub := c.events.Subscribe(256)
	sub.DropCounter = c.reg.Counter("dynriver_events_dropped_total",
		"subscriber", w.conn.RemoteAddr().String())
	defer c.events.Unsubscribe(sub)
	c.evWatchers.Add(1)
	defer c.evWatchers.Add(-1)
	if backlog := c.events.Since(last, match); len(backlog) > 0 {
		if err := w.send(&Message{Type: TypeEvent, Events: backlog}); err != nil {
			return
		}
		last = backlog[len(backlog)-1].Seq
	}
	// The reader goroutine exists only to notice the client hanging up;
	// clients send nothing after the subscription. It exits when
	// handleConn closes the connection on return.
	readErr := make(chan struct{})
	go func() {
		for {
			if _, err := w.recv(); err != nil {
				close(readErr)
				return
			}
		}
	}()
	for {
		select {
		case e := <-sub.C:
			if e.Seq <= last || (match != nil && !match(e)) {
				continue
			}
			last = e.Seq
			if err := w.send(&Message{Type: TypeEvent, Events: []obs.Event{e}}); err != nil {
				return
			}
		case <-readErr:
			return
		case <-c.ctx.Done():
			return
		}
	}
}
