package river

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/timeseries"
)

// MonitorConfig parameterizes the coordinator's self-monitoring loop —
// the surfaced half of the paper's self-observing pipeline: the control
// plane runs its own telemetry through the timeseries detectors and
// flags a degrading node before failure detection fires.
type MonitorConfig struct {
	// Disabled turns the monitor off entirely.
	Disabled bool
	// Interval is the sampling cadence (default 500ms). Each tick samples
	// every registered node's aggregated telemetry.
	Interval time.Duration
	// Alpha is the EWMA smoothing factor of the per-series baselines
	// (default 0.1; higher tracks regime changes faster but flags less).
	Alpha float64
	// Warmup is how many samples a series needs before its scores are
	// acted on (default 12 — six seconds at the default interval).
	Warmup int
	// Threshold is the one-sided z-score at which a series is flagged
	// (default 4). Only upward excursions flag: queue depth, lag growth
	// and heartbeat age are all bad in one direction.
	Threshold float64
	// Cooldown suppresses repeat anomaly events for the same node+metric
	// (default 10s), so a sustained degradation is one event, not one per
	// tick.
	Cooldown time.Duration
}

func (mc MonitorConfig) withDefaults() MonitorConfig {
	if mc.Interval <= 0 {
		mc.Interval = 500 * time.Millisecond
	}
	if mc.Alpha <= 0 || mc.Alpha > 1 {
		mc.Alpha = 0.1
	}
	if mc.Warmup <= 0 {
		mc.Warmup = 12
	}
	if mc.Threshold <= 0 {
		mc.Threshold = 4
	}
	if mc.Cooldown <= 0 {
		mc.Cooldown = 10 * time.Second
	}
	return mc
}

// Monitored per-node metrics. queue_depth is the summed streamin backlog,
// lag_delta the per-tick growth of the summed processed−emitted delta,
// heartbeat_ms the age of the node's latest heartbeat at sample time
// (jitter: a healthy node's age stays under the heartbeat interval).
const (
	monMetricQueueDepth  = "queue_depth"
	monMetricLagDelta    = "lag_delta"
	monMetricHeartbeatMS = "heartbeat_ms"
	// e2e_latency_ms is the node's worst p99 data-plane latency across its
	// hosted segments (from heartbeats), in milliseconds — the
	// latency tracing loop feeding back into anomaly detection.
	monMetricE2eLatencyMS = "e2e_latency_ms"
)

// Absolute sigma floors per metric, in the metric's units: the smallest
// deviation that is operationally meaningful. Without them a perfectly
// flat baseline (an always-empty queue) would score its first one-record
// wiggle as astronomically anomalous. With a floor of f and threshold T,
// a flat-baseline series flags only once the value exceeds mean + T·f —
// e.g. 4 queued records × threshold 4 = a backlog of 16+ records.
const (
	monFloorQueueDepth = 4  // records
	monFloorLagDelta   = 8  // records per tick
	monFloorE2eLatency = 25 // milliseconds — sub-25ms jitter is healthy
)

// monitorLoop samples every node's aggregated telemetry each tick, feeds
// the series through per-(node,metric) streaming z-score detectors, and
// emits anomaly events for warm series scoring past the threshold. It
// runs under the coordinator's waitgroup until Close.
func (c *Coordinator) monitorLoop() {
	defer c.wg.Done()
	mc := c.cfg.Monitor.withDefaults()
	set := timeseries.NewZScoreSet(mc.Alpha, mc.Warmup)
	prevLag := make(map[string]float64)    // cumulative lag at last tick
	lastFlag := make(map[string]time.Time) // (node/metric) -> last anomaly
	tick := time.NewTicker(mc.Interval)
	defer tick.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-tick.C:
		}
		type sample struct {
			node       string
			depth, lag float64
			e2eMS      float64
			beatAge    time.Duration
		}
		now := time.Now()
		c.mu.Lock()
		samples := make([]sample, 0, len(c.nodes))
		for name, m := range c.nodes {
			s := sample{node: name, beatAge: now.Sub(m.lastBeat)}
			for _, seg := range m.stats {
				s.depth += float64(seg.QueueDepth)
				s.lag += float64(seg.LagValue())
				// Worst p99 across the node's segments; e2e (probe-derived)
				// when available, per-hop otherwise.
				if ms := float64(seg.E2eP99Us) / 1e3; ms > s.e2eMS {
					s.e2eMS = ms
				} else if ms := float64(seg.LatP99Us) / 1e3; seg.E2eP99Us == 0 && ms > s.e2eMS {
					s.e2eMS = ms
				}
			}
			samples = append(samples, s)
		}
		c.mu.Unlock()
		seen := make(map[string]bool, len(samples))
		for _, s := range samples {
			seen[s.node] = true
			lagDelta := 0.0
			if prev, ok := prevLag[s.node]; ok {
				lagDelta = s.lag - prev
			}
			prevLag[s.node] = s.lag
			for _, mv := range []struct {
				metric string
				value  float64
				floor  float64
			}{
				{monMetricQueueDepth, s.depth, monFloorQueueDepth},
				{monMetricLagDelta, lagDelta, monFloorLagDelta},
				{monMetricE2eLatencyMS, s.e2eMS, monFloorE2eLatency},
				// Heartbeat age legitimately jitters by up to the beat
				// interval on a healthy node; deviations under one interval
				// are noise.
				{monMetricHeartbeatMS, float64(s.beatAge.Milliseconds()),
					float64(c.cfg.HeartbeatInterval.Milliseconds())},
			} {
				key := s.node + "/" + mv.metric
				score, warm := set.PushFloor(key, mv.value, mv.floor)
				c.reg.Gauge("dynriver_monitor_zscore", "node", s.node, "metric", mv.metric).Set(score)
				if !warm || score < mc.Threshold {
					continue
				}
				if t, ok := lastFlag[key]; ok && now.Sub(t) < mc.Cooldown {
					continue
				}
				lastFlag[key] = now
				c.event(obs.Event{
					Type: obs.EventAnomaly, Node: s.node,
					Metric: mv.metric, Value: mv.value, Score: score,
					Detail: fmt.Sprintf("z-score %.1f over threshold %.1f", score, mc.Threshold),
				})
				c.logf("anomaly: node %s %s=%g (z-score %.1f)", s.node, mv.metric, mv.value, score)
			}
		}
		// A departed node's baselines must not welcome its replacement:
		// forget every series of nodes no longer registered.
		for key := range prevLag {
			if !seen[key] {
				set.Forget(key + "/")
				delete(prevLag, key)
				for _, m := range []string{monMetricQueueDepth, monMetricLagDelta, monMetricHeartbeatMS, monMetricE2eLatencyMS} {
					delete(lastFlag, key+"/"+m)
				}
			}
		}
	}
}
