package river

import (
	"fmt"
	"maps"
	"slices"
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

// monitor is the self-monitoring detector state: per-(node,metric)
// streaming z-score baselines, the per-node cumulative lag at the last
// sample, and each series' last anomaly for the cooldown.
type monitor struct {
	cfg      MonitorConfig
	set      *timeseries.ZScoreSet
	prevLag  map[string]float64
	lastFlag map[string]time.Time
	next     time.Time
}

func newMonitor(mc MonitorConfig) *monitor {
	mc = mc.withDefaults()
	return &monitor{cfg: mc, set: timeseries.NewZScoreSet(mc.Alpha, mc.Warmup),
		prevLag: make(map[string]float64), lastFlag: make(map[string]time.Time)}
}

// sample runs one monitor tick when its interval is due: it samples every
// node's aggregated telemetry, feeds the series through the detectors, and
// emits an anomaly event (handed straight to the remediation policy) for
// each warm series scoring past the threshold.
func (k *core) sample() {
	mon, now := k.mon, k.now
	if mon.cfg.Disabled || !due(&mon.next, now, mon.cfg.Interval) {
		return
	}
	for _, name := range slices.Sorted(maps.Keys(k.nodes)) {
		m := k.nodes[name]
		var depth, lag, e2eMS float64
		for _, seg := range m.stats {
			depth += float64(seg.QueueDepth)
			lag += float64(seg.LagValue())
			// Worst p99 across the node's segments; e2e (probe-derived)
			// when available, per-hop otherwise.
			if ms := float64(seg.E2eP99Us) / 1e3; ms > e2eMS {
				e2eMS = ms
			} else if ms := float64(seg.LatP99Us) / 1e3; seg.E2eP99Us == 0 && ms > e2eMS {
				e2eMS = ms
			}
		}
		lagDelta := 0.0
		if prev, ok := mon.prevLag[name]; ok {
			lagDelta = lag - prev
		}
		mon.prevLag[name] = lag
		for _, mv := range []struct {
			metric       string
			value, floor float64
		}{
			{monMetricQueueDepth, depth, monFloorQueueDepth},
			{monMetricLagDelta, lagDelta, monFloorLagDelta},
			{monMetricE2eLatencyMS, e2eMS, monFloorE2eLatency},
			// Heartbeat age legitimately jitters by up to the beat interval
			// on a healthy node; deviations under one interval are noise.
			{monMetricHeartbeatMS, float64(now.Sub(m.lastBeat).Milliseconds()),
				float64(k.cfg.HeartbeatInterval.Milliseconds())},
		} {
			key := name + "/" + mv.metric
			score, warm := mon.set.PushFloor(key, mv.value, mv.floor)
			k.emit(action{kind: actGauge, ev: obs.Event{Node: name, Metric: mv.metric, Score: score}})
			if t, ok := mon.lastFlag[key]; !warm || score < mon.cfg.Threshold || (ok && now.Sub(t) < mon.cfg.Cooldown) {
				continue
			}
			mon.lastFlag[key] = now
			e := obs.Event{
				Type: obs.EventAnomaly, Node: name,
				Metric: mv.metric, Value: mv.value, Score: score,
				Detail: fmt.Sprintf("z-score %.1f over threshold %.1f", score, mon.cfg.Threshold),
			}
			k.event(e)
			k.logf("anomaly: node %s %s=%g (z-score %.1f)", name, mv.metric, mv.value, score)
			k.remediate(e)
		}
	}
	// A departed node's baselines must not welcome its replacement: forget
	// every series of nodes no longer registered.
	for name := range mon.prevLag {
		if k.nodes[name] == nil {
			mon.set.Forget(name + "/")
			delete(mon.prevLag, name)
			for _, m := range []string{monMetricQueueDepth, monMetricLagDelta, monMetricHeartbeatMS, monMetricE2eLatencyMS} {
				delete(mon.lastFlag, name+"/"+m)
			}
		}
	}
}
