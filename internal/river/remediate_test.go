package river

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/record"
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
	time.Sleep(250 * time.Millisecond)
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
	time.Sleep(250 * time.Millisecond) // n3's own attempt stamped its cooldown
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
			waitFor(t, 5*time.Second, "placement", func() bool {
				for _, p := range coord.Status().Placements {
					if !p.Placed {
						return false
					}
				}
				return true
			})
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
	// The floor sticks to the series: a later plain Push keeps it.
	if score, _ := set.Push("below", 15); score >= threshold || score <= 0 {
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
	depthAnomalies := func() []obs.Event {
		return coord.Events().Since(0, func(e obs.Event) bool {
			return e.Type == obs.EventAnomaly && e.Node == "n1" && e.Metric == monMetricQueueDepth
		})
	}

	// Warm the baseline on an empty queue, then step.
	n1.setStats(stats(0))
	time.Sleep(400 * time.Millisecond)
	if got := depthAnomalies(); len(got) != 0 {
		t.Fatalf("anomalies during flat warmup: %+v", got)
	}
	n1.setStats(stats(1000))
	waitFor(t, 5*time.Second, "first queue-depth anomaly", func() bool {
		return len(depthAnomalies()) >= 1
	})
	first := depthAnomalies()[0]

	// Escalate so the series keeps scoring past the threshold; the
	// per-(node,metric) cooldown must hold it to one event.
	n1.setStats(stats(1_000_000))
	time.Sleep(cooldown / 2)
	if got := depthAnomalies(); len(got) != 1 {
		t.Fatalf("cooldown did not suppress repeats: %+v", got)
	}

	// After expiry a fresh excursion flags again.
	time.Sleep(cooldown)
	n1.setStats(stats(1_000_000_000))
	waitFor(t, 5*time.Second, "post-cooldown anomaly", func() bool {
		return len(depthAnomalies()) >= 2
	})
	second := depthAnomalies()[1]
	if second.Seq <= first.Seq {
		t.Fatalf("anomalies out of order: %d then %d", first.Seq, second.Seq)
	}
	if gap := second.TimeMS - first.TimeMS; gap < int64(cooldown.Milliseconds())-50 {
		t.Errorf("second anomaly only %dms after the first; cooldown is %v", gap, cooldown)
	}
}

// TestRemediationIntegration is the acceptance scenario for the closed
// loop: a 3-replica relay group under sustained load, one replica node
// artificially slowed. The monitor must flag it, the remediation policy
// must pre-emptively drain it — the ordered event trail reading
// anomaly -> remediation(triggered, started) -> drain -> drained ->
// remediation(completed) — after which the node hosts nothing and its
// death is a non-event: zero lost records, zero duplicates, zero repairs.
func TestRemediationIntegration(t *testing.T) {
	terminal, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := newExactlyOnceSink()
	var termWG sync.WaitGroup
	termWG.Add(1)
	go func() {
		defer termWG.Done()
		_ = pipeline.New().SetSource(terminal).SetSink(sink).Run(context.Background())
	}()

	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "relay", Type: "relay", Replicas: 3}},
			SinkAddr: terminal.Addr(),
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		MinNodes:          4,
		DrainSettle:       150 * time.Millisecond,
		// Same monitor shape as the observability acceptance: sampling slow
		// relative to the queue fill rate so the throttle reads as a level
		// shift, threshold high enough that healthy nodes never flag.
		Monitor: MonitorConfig{
			Interval:  150 * time.Millisecond,
			Alpha:     0.1,
			Warmup:    8,
			Threshold: 6,
			Cooldown:  time.Minute,
		},
		// The closed loop: drain the flagged node, for real. MaxConcurrent 2
		// leaves headroom in case a neighbor blips past the threshold while
		// the victim's drain is in flight.
		Remediate: RemediateConfig{
			Mode:          RemediateDrain,
			Cooldown:      time.Minute,
			MaxConcurrent: 2,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	type liveAgent struct {
		cancel context.CancelFunc
		done   chan error
		delay  *atomic.Int64
	}
	agents := map[string]*liveAgent{}
	for _, name := range []string{"node-a", "node-b", "node-c", "node-d"} {
		delay := &atomic.Int64{}
		reg := pipeline.NewRegistry()
		reg.Register("relay", func() []pipeline.Operator {
			return []pipeline.Operator{slowableRelay{delay: delay}}
		})
		a := NewAgent(name, coord.Addr(), reg)
		a.ListenHost = agentListenHost(t)
		a.Logf = t.Logf
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- a.Run(ctx) }()
		agents[name] = &liveAgent{cancel: cancel, done: done, delay: delay}
	}
	defer func() {
		for _, la := range agents {
			la.cancel()
			<-la.done
		}
	}()
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := coord.WaitPlaced(wctx); err != nil {
		t.Fatal(err)
	}

	out := pipeline.NewStreamOutBatched(coord.EntryAddr(), record.DefaultBatchConfig())
	defer out.Close()
	if err := out.Consume(record.NewOpenScope(record.ScopeSession, 0)); err != nil {
		t.Fatal(err)
	}
	var sent int
	var sendMu sync.Mutex
	stopLoad := make(chan struct{})
	loadDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				sendMu.Lock()
				sent = i
				sendMu.Unlock()
				loadDone <- nil
				return
			default:
			}
			r := record.NewData(record.SubtypeAudio)
			r.SetFloat64s([]float64{float64(i)})
			if err := out.Consume(r); err != nil {
				sendMu.Lock()
				sent = i
				sendMu.Unlock()
				loadDone <- err
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	waitFor(t, 10*time.Second, "records flowing pre-throttle", func() bool {
		return sink.received() >= 300
	})
	time.Sleep(1200 * time.Millisecond) // monitor baselines warm on healthy traffic

	// Throttle a node hosting only a replica: the one kind of unit the
	// remediation drain may legally move.
	endpointNodes := map[string]bool{}
	for _, p := range coord.Status().Placements {
		if p.Role == RoleSplit || p.Role == RoleMerge {
			endpointNodes[p.Node] = true
		}
	}
	var victim, victimUnit string
	for _, p := range coord.Status().Placements {
		if p.Role == RoleReplica && p.Placed && !endpointNodes[p.Node] {
			victim, victimUnit = p.Node, p.Seg
			break
		}
	}
	if victim == "" {
		t.Fatalf("no node hosts only a replica: %+v", coord.Status().Placements)
	}
	throttledAt := time.Now()
	agents[victim].delay.Store(int64(50 * time.Millisecond))
	t.Logf("throttled %s (hosting %s)", victim, victimUnit)

	// The loop must close unattended: anomaly, then the remediation pair,
	// then the drain pair, then completion — strictly ordered, all naming
	// the victim, with no failure detection anywhere in the trail.
	var anomSeq, trigSeq, startSeq, drainSeq, drainedSeq, doneSeq uint64
	waitFor(t, 30*time.Second, "remediation completed", func() bool {
		events, err := FetchEvents(coord.Addr(), "", 0, 5*time.Second)
		if err != nil {
			return false
		}
		for _, e := range events {
			if e.Type == obs.EventFailover {
				t.Fatalf("failure detection fired during remediation: %+v", e)
			}
			switch {
			case e.Type == obs.EventAnomaly && e.Node == victim && anomSeq == 0 &&
				e.TimeMS >= throttledAt.UnixMilli():
				anomSeq = e.Seq
			case e.Type == obs.EventRemediation && e.Node == victim:
				switch e.Phase {
				case obs.RemPhaseTriggered:
					if trigSeq == 0 {
						trigSeq = e.Seq
					}
				case obs.RemPhaseStarted:
					if startSeq == 0 {
						startSeq = e.Seq
					}
					if !strings.Contains(e.Detail, victimUnit) {
						t.Fatalf("started event does not name the drained unit: %+v", e)
					}
				case obs.RemPhaseCompleted:
					if doneSeq == 0 {
						doneSeq = e.Seq
					}
				}
			case e.Type == obs.EventDrain && e.Unit == victimUnit && drainSeq == 0:
				drainSeq = e.Seq
			case e.Type == obs.EventDrained && e.Unit == victimUnit && drainedSeq == 0:
				drainedSeq = e.Seq
			}
		}
		return doneSeq != 0
	})
	seqs := []uint64{anomSeq, trigSeq, startSeq, drainSeq, drainedSeq, doneSeq}
	for i := 1; i < len(seqs); i++ {
		if seqs[i-1] == 0 || seqs[i] <= seqs[i-1] {
			t.Fatalf("loop trail out of order: anomaly=%d triggered=%d started=%d drain=%d drained=%d completed=%d",
				anomSeq, trigSeq, startSeq, drainSeq, drainedSeq, doneSeq)
		}
	}
	t.Logf("closed loop in %v: anomaly=%d triggered=%d started=%d drain=%d drained=%d completed=%d",
		time.Since(throttledAt), anomSeq, trigSeq, startSeq, drainSeq, drainedSeq, doneSeq)

	// The drained node must end up idle, the group back at 3 replicas
	// elsewhere.
	waitFor(t, 10*time.Second, "victim idle, group re-converged", func() bool {
		alive := 0
		for _, p := range coord.Status().Placements {
			if p.Node == victim {
				return false
			}
			if p.Role == RoleReplica && p.Placed {
				alive++
			}
		}
		return alive == 3
	})

	// Killing the idle node is a non-event: nothing hosted, nothing lost,
	// no failover re-placement.
	preKill := coord.Events().LastSeq()
	agents[victim].cancel()
	<-agents[victim].done
	delete(agents, victim)
	post := sink.received()
	waitFor(t, 10*time.Second, "records flowing post-kill", func() bool {
		return sink.received() >= post+300
	})
	for _, e := range coord.Events().Since(preKill, nil) {
		if e.Type == obs.EventFailover && strings.Contains(e.Detail, victimUnit) {
			t.Fatalf("idle node's death lost units: %+v", e)
		}
		if e.Type == obs.EventReplace && e.Unit == victimUnit {
			t.Fatalf("drained unit re-placed after the idle death: %+v", e)
		}
	}

	// Drain the load and audit exactly-once delivery across the whole
	// remediation.
	close(stopLoad)
	if err := <-loadDone; err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := out.Consume(record.NewCloseScope(record.ScopeSession, 0)); err != nil {
		t.Fatal(err)
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	sendMu.Lock()
	total := sent
	sendMu.Unlock()
	waitFor(t, 15*time.Second, "all records at the sink", func() bool {
		return sink.received() >= total
	})
	missing, duplicated, repairs := sink.audit(total)
	t.Logf("sent=%d missing=%d duplicated=%d repairs=%d", total, missing, duplicated, repairs)
	if missing != 0 {
		t.Errorf("%d of %d records lost across the remediation", missing, total)
	}
	if duplicated != 0 {
		t.Errorf("%d of %d records duplicated", duplicated, total)
	}
	if repairs != 0 {
		t.Errorf("%d scope repairs reached the sink", repairs)
	}

	_ = out.Close()
	for _, la := range agents {
		la.cancel()
		<-la.done
	}
	agents = map[string]*liveAgent{}
	_ = terminal.Close()
	termWG.Wait()
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
	waitFor(t, 5*time.Second, "baseline heartbeat folded", func() bool {
		st := coord.Status()
		return len(st.Nodes) == 1 && len(st.Nodes[0].Segments) == 1
	})
	time.Sleep(100 * time.Millisecond)
	n1.setStats(stats(3))
	waitFor(t, 5*time.Second, "first alert delta", func() bool {
		return len(alertEvents()) >= 1
	})
	if e := alertEvents()[0]; e.Unit != "seg" || e.Node != "n1" || e.Value != 3 {
		t.Fatalf("first alert event = %+v; want unit=seg node=n1 value=3", e)
	}
	// A steady counter folds to nothing; a bump folds to its delta.
	time.Sleep(200 * time.Millisecond)
	if got := alertEvents(); len(got) != 1 {
		t.Fatalf("steady alert counter re-emitted: %+v", got)
	}
	n1.setStats(stats(5))
	waitFor(t, 5*time.Second, "second alert delta", func() bool {
		return len(alertEvents()) >= 2
	})
	if e := alertEvents()[1]; e.Value != 2 {
		t.Fatalf("alert delta = %+v; want value=2", e)
	}
	if got := fmt.Sprint(len(alertEvents())); got != "2" {
		t.Fatalf("unexpected extra alert events: %s", got)
	}
}
