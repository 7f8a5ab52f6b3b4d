package river

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rivertest/eventwait"
	"repro/internal/timeseries"
)

// TestRemediateConfigValidate covers the config guardrails: unknown modes
// are rejected at coordinator construction, defaults fill in.
func TestRemediateConfigValidate(t *testing.T) {
	if _, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{Segments: []SegmentSpec{{Name: "s", Type: "t"}}, SinkAddr: "127.0.0.1:9"}},
		Remediate: RemediateConfig{Mode: "panic"},
	}); err == nil || !strings.Contains(err.Error(), "remediation mode") {
		t.Fatalf("bad remediation mode accepted: %v", err)
	}
	rc := RemediateConfig{}.withDefaults()
	if rc.Mode != RemediateObserve || rc.Cooldown != time.Minute || rc.MaxConcurrent != 1 {
		t.Fatalf("unexpected defaults: %+v", rc)
	}
}

// remEvents filters a coordinator's retained event log down to the
// remediation events, oldest first.
func remEvents(c *Coordinator) []obs.Event {
	return c.Events().Since(0, func(e obs.Event) bool { return e.Type == obs.EventRemediation })
}

// TestRemediationGuardrails drives remediateAnomaly directly with
// synthetic anomaly events and audits the decision stream: observe-mode
// suppression, per-node cooldown (including expiry), the drain-in-flight
// guard, and the concurrency cap — each decision visible as a typed
// suppressed event naming its reason.
func TestRemediationGuardrails(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Pipelines:         []PipelineSpec{{Segments: []SegmentSpec{{Name: "seg", Type: "t"}}, SinkAddr: "127.0.0.1:9"}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		Remediate:         RemediateConfig{Cooldown: 200 * time.Millisecond},
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	anom := func(node string) obs.Event {
		return obs.Event{Type: obs.EventAnomaly, Node: node, Metric: "queue_depth", Value: 99, Score: 8}
	}
	phases := func(node string) []string {
		var out []string
		for _, e := range remEvents(coord) {
			if e.Node == node {
				out = append(out, e.Phase+":"+e.Detail)
			}
		}
		return out
	}

	// Observe mode (the default): the policy walks up to the mode gate,
	// records the trigger, then declines — the inaction is observable.
	coord.remediateAnomaly(anom("n1"))
	got := phases("n1")
	if len(got) != 2 || !strings.HasPrefix(got[0], "triggered:") || got[1] != "suppressed:mode=observe" {
		t.Fatalf("observe-mode decisions = %v", got)
	}
	trig := remEvents(coord)[0]
	if trig.Metric != "queue_depth" || trig.Value != 99 || trig.Score != 8 {
		t.Fatalf("triggered event lost the anomaly measurement: %+v", trig)
	}

	// Within the cooldown the same node is suppressed before any trigger.
	coord.remediateAnomaly(anom("n1"))
	if got = phases("n1"); len(got) != 3 || got[2] != "suppressed:cooldown" {
		t.Fatalf("cooldown decisions = %v", got)
	}

	// After the cooldown expires the node is eligible again.
	time.Sleep(250 * time.Millisecond) // waits out the 200 ms cooldown
	coord.remediateAnomaly(anom("n1"))
	if got = phases("n1"); len(got) != 5 || !strings.HasPrefix(got[3], "triggered:") {
		t.Fatalf("post-cooldown decisions = %v", got)
	}

	// A node with a drain already in flight is suppressed, and — with the
	// default MaxConcurrent of 1 — so is every other node meanwhile.
	coord.rem.mu.Lock()
	coord.rem.inflight["n2"] = true
	coord.rem.mu.Unlock()
	coord.remediateAnomaly(anom("n2"))
	if got = phases("n2"); len(got) != 1 || got[0] != "suppressed:drain-in-flight" {
		t.Fatalf("drain-in-flight decisions = %v", got)
	}
	coord.remediateAnomaly(anom("n3"))
	if got = phases("n3"); len(got) != 1 || got[0] != "suppressed:max-concurrent" {
		t.Fatalf("max-concurrent decisions = %v", got)
	}
	// Suppression leaves no cooldown stamp behind beyond the attempt
	// itself: once the drain lands, the blocked node becomes eligible.
	coord.rem.mu.Lock()
	delete(coord.rem.inflight, "n2")
	coord.rem.mu.Unlock()
	time.Sleep(250 * time.Millisecond) // waits out the cooldown n3's own attempt stamped
	coord.remediateAnomaly(anom("n3"))
	if got = phases("n3"); len(got) != 3 || !strings.HasPrefix(got[1], "triggered:") {
		t.Fatalf("post-unblock decisions = %v", got)
	}
}

// TestRemediationDryRunAndDrainability covers the drain-mode gates that
// need a placed cluster: dry-run walks the whole policy but suppresses
// with the would-be drain list, and a node hosting nothing drainable is
// suppressed with that reason.
func TestRemediationDryRunAndDrainability(t *testing.T) {
	for _, row := range []struct {
		name  string
		seg   SegmentSpec
		nodes int
	}{
		{"plain", SegmentSpec{Name: "seg", Type: "t"}, 2},
		// A sharded group's partition/collect endpoints are as undrainable
		// as a replicated group's split/merge: only its shard legs may be
		// named, and a node hosting nothing else has no drainable units.
		{"sharded", SegmentSpec{Name: "seg", Type: "t", Shards: 2}, 3},
	} {
		t.Run(row.name, func(t *testing.T) {
			coord, err := NewCoordinator(Config{
				Pipelines:         []PipelineSpec{{Segments: []SegmentSpec{row.seg}, SinkAddr: "127.0.0.1:9"}},
				HeartbeatInterval: 25 * time.Millisecond,
				HeartbeatTimeout:  2 * time.Second,
				MinNodes:          row.nodes,
				Remediate:         RemediateConfig{Mode: RemediateDrain, DryRun: true, Cooldown: time.Minute},
				Logf:              t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			var nodes []string
			for i := 1; i <= row.nodes; i++ {
				name := fmt.Sprintf("n%d", i)
				a := newFakeAgent(t, coord.Addr(), name, fmt.Sprintf("127.0.0.1:1900%d", i))
				defer a.close()
				nodes = append(nodes, name)
			}
			eventwait.For(t, coord.Events(), 0, "placement", eventwait.Is(obs.EventEntry, "", ""))
			// What Drain accepts: plain segments and group legs, never a
			// group's endpoints.
			drainable := make(map[string][]string)
			for _, p := range coord.Status().Placements {
				if p.Role == "" || p.Role == RoleReplica || p.Role == RoleShard {
					drainable[p.Node] = append(drainable[p.Node], p.Seg)
				}
			}
			idle := 0
			for _, node := range nodes {
				coord.remediateAnomaly(obs.Event{Type: obs.EventAnomaly, Node: node, Metric: "queue_depth"})
				events := remEvents(coord)
				if len(events) < 2 || events[len(events)-2].Phase != obs.RemPhaseTriggered {
					t.Fatalf("dry-run decisions = %+v", events)
				}
				want := "no drainable units"
				if units := drainable[node]; len(units) > 0 {
					sort.Strings(units)
					want = "dry-run: would drain " + strings.Join(units, " ")
				} else {
					idle++
				}
				last := events[len(events)-1]
				if last.Phase != obs.RemPhaseSuppressed || last.Detail != want || last.Node != node {
					t.Fatalf("node %s: suppression = %+v, want detail %q", node, last, want)
				}
			}
			if idle == 0 {
				t.Fatalf("no node without drainable units; placements %+v", coord.Status().Placements)
			}
		})
	}
}

// TestMonitorFloorFlatThenStep pins the MinSigma/PushFloor interaction the
// monitor relies on: a series that warms up perfectly flat must not flag
// its first wiggle (the EWMA sigma is zero; only the floor keeps the score
// finite), and the flag point on a step is exactly threshold x floor above
// the flat baseline — using the monitor's own queue-depth floor.
func TestMonitorFloorFlatThenStep(t *testing.T) {
	const threshold = 4 // the monitor's default
	set := timeseries.NewZScoreSet(0.1, 4)
	for i := 0; i < 8; i++ {
		for _, series := range []string{"wiggle", "below", "above"} {
			if score, warm := set.PushFloor(series, 0, monFloorQueueDepth); warm && score != 0 {
				t.Fatalf("flat series %s scored %g", series, score)
			}
		}
	}
	// One queued record on a dead-flat baseline: without the floor this
	// would divide by sigma=0; with it, 1/4 = 0.25 — noise.
	if score, warm := set.PushFloor("wiggle", 1, monFloorQueueDepth); !warm || score >= threshold {
		t.Fatalf("one-record wiggle scored %g (warm=%v); want < %d", score, warm, threshold)
	}
	// Steps land exactly where mean + threshold*floor says: 15/4 < 4 stays
	// quiet, 17/4 > 4 flags.
	if score, _ := set.PushFloor("below", 15, monFloorQueueDepth); score >= threshold {
		t.Fatalf("step of 15 scored %g; want < %d", score, threshold)
	}
	if score, _ := set.PushFloor("above", 17, monFloorQueueDepth); score < threshold {
		t.Fatalf("step of 17 scored %g; want >= %d", score, threshold)
	}
	// The floor sticks to the series: a later call without one keeps it.
	if score, _ := set.PushFloor("below", 15, 0); score >= threshold || score <= 0 {
		t.Fatalf("floor did not stick across Push: score %g", score)
	}
}

// TestMonitorAnomalyCooldownExpiry runs the real monitor loop against a
// fake agent's heartbeats: a flat-then-step queue depth flags once, stays
// suppressed while the cooldown holds even as the series keeps scoring,
// and flags a second time only after the cooldown expires.
func TestMonitorAnomalyCooldownExpiry(t *testing.T) {
	const cooldown = 500 * time.Millisecond
	coord, err := NewCoordinator(Config{
		Pipelines:         []PipelineSpec{{Segments: []SegmentSpec{{Name: "seg", Type: "t"}}, SinkAddr: "127.0.0.1:9"}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		Monitor: MonitorConfig{
			Interval:  25 * time.Millisecond,
			Alpha:     0.1,
			Warmup:    6,
			Threshold: 4,
			Cooldown:  cooldown,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	n1 := newFakeAgent(t, coord.Addr(), "n1", "127.0.0.1:19001")
	defer n1.close()
	stats := func(depth int) []SegmentStatus {
		return []SegmentStatus{{Name: "seg", Type: "t", Addr: "127.0.0.1:19001",
			Processed: 100, Emitted: 100, QueueDepth: depth}}
	}
	isDepthAnomaly := func(e obs.Event) bool {
		return e.Type == obs.EventAnomaly && e.Node == "n1" && e.Metric == monMetricQueueDepth
	}
	depthAnomalies := func() []obs.Event { return coord.Events().Since(0, isDepthAnomaly) }

	// Warm the baseline on an empty queue, then step.
	n1.setStats(stats(0))
	time.Sleep(400 * time.Millisecond) // the warmup window: Warmup x Interval of flat samples, with margin
	if got := depthAnomalies(); len(got) != 0 {
		t.Fatalf("anomalies during flat warmup: %+v", got)
	}
	n1.setStats(stats(1000))
	first := eventwait.For(t, coord.Events(), 0, "first queue-depth anomaly", isDepthAnomaly)

	// Escalate so the series keeps scoring past the threshold; the
	// per-(node,metric) cooldown must hold it to one event.
	n1.setStats(stats(1_000_000))
	time.Sleep(cooldown / 2) // inside the cooldown window, the series scoring all along
	if got := depthAnomalies(); len(got) != 1 {
		t.Fatalf("cooldown did not suppress repeats: %+v", got)
	}

	// After expiry a fresh excursion flags again.
	time.Sleep(cooldown) // waits out the cooldown
	n1.setStats(stats(1_000_000_000))
	second := eventwait.For(t, coord.Events(), first.Seq, "post-cooldown anomaly", isDepthAnomaly)
	if second.Seq <= first.Seq {
		t.Fatalf("anomalies out of order: %d then %d", first.Seq, second.Seq)
	}
	if gap := second.TimeMS - first.TimeMS; gap < int64(cooldown.Milliseconds())-50 {
		t.Errorf("second anomaly only %dms after the first; cooldown is %v", gap, cooldown)
	}
}

// TestHeartbeatAlertFolding checks the v7 alert plumbing end to end at the
// control-plane level: a fake agent's heartbeat carries a growing alert
// counter, and the coordinator folds each delta into one typed alert
// event — cumulative counts never re-emitted.
func TestHeartbeatAlertFolding(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Pipelines:         []PipelineSpec{{Segments: []SegmentSpec{{Name: "seg", Type: "t"}}, SinkAddr: "127.0.0.1:9"}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	n1 := newFakeAgent(t, coord.Addr(), "n1", "127.0.0.1:19001")
	defer n1.close()
	stats := func(alerts uint64) []SegmentStatus {
		return []SegmentStatus{{Name: "seg", Type: "t", Addr: "127.0.0.1:19001",
			Processed: 10, Emitted: 10, Alerts: alerts}}
	}
	alertEvents := func() []obs.Event {
		return coord.Events().Since(0, func(e obs.Event) bool { return e.Type == obs.EventAlert })
	}

	// The instance's first report seeds the baseline silently — counters on
	// first contact may be history (adoption after a coordinator restart).
	n1.setStats(stats(0))
	eventwait.Until(t, "baseline heartbeat folded", func() bool {
		st := coord.Status()
		return len(st.Nodes) == 1 && len(st.Nodes[0].Segments) == 1
	})
	n1.setStats(stats(3))
	first := eventwait.For(t, coord.Events(), 0, "first alert delta", eventwait.Is(obs.EventAlert, "", ""))
	if e := first; e.Unit != "seg" || e.Node != "n1" || e.Value != 3 {
		t.Fatalf("first alert event = %+v; want unit=seg node=n1 value=3", e)
	}
	// A steady counter folds to nothing; a bump folds to its delta.
	time.Sleep(200 * time.Millisecond) // eight heartbeats in which the steady counter must fold to nothing
	if got := alertEvents(); len(got) != 1 {
		t.Fatalf("steady alert counter re-emitted: %+v", got)
	}
	n1.setStats(stats(5))
	if e := eventwait.For(t, coord.Events(), first.Seq, "second alert delta", eventwait.Is(obs.EventAlert, "", "")); e.Value != 2 {
		t.Fatalf("alert delta = %+v; want value=2", e)
	}
	if got := fmt.Sprint(len(alertEvents())); got != "2" {
		t.Fatalf("unexpected extra alert events: %s", got)
	}
}
