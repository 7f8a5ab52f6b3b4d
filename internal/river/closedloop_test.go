package river_test

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/river"
	"repro/internal/rivertest"
)

// metricValue extracts one series' value from a Prometheus text scrape.
func metricValue(t *testing.T, scrape, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("series %s absent from scrape:\n%s", series, scrape)
	return 0
}

// monitored is the cluster both closed-loop acceptances run: a 3-replica
// relay group under sustained load, with the monitor sampling slowly
// relative to the queue's fill rate — at 150 ms ticks a throttled node's
// queue jumps by far more than threshold x the per-metric sigma floor per
// sample, so the backlog reads as a level shift, not a ramp the EWMA
// baseline absorbs; the threshold is high enough that healthy nodes never
// flag. It returns the running load once the baselines are warm.
func monitored(t *testing.T, cfg river.Config) (*rivertest.Cluster, *rivertest.Load) {
	cfg.Pipelines = rivertest.Pipeline(river.SegmentSpec{Name: "relay", Type: "relay", Replicas: 3})
	cfg.MinNodes = 4
	cfg.Monitor = river.MonitorConfig{Interval: 150 * time.Millisecond, Alpha: 0.1, Warmup: 8, Threshold: 6, Cooldown: time.Minute}
	c := rivertest.Start(t, cfg, 4)
	load := c.Load(rivertest.LoadSpec{})
	c.Sink("").AwaitReceived(300)
	time.Sleep(1200 * time.Millisecond) // the monitor's warmup window (Warmup x Interval, with margin) on healthy traffic
	return c, load
}

// TestObservabilityIntegration is the acceptance scenario for the
// observability layer: a 3-replica relay group under sustained load, one
// replica node artificially slowed. The monitor must emit an anomaly
// event naming that node and its saturated metric BEFORE failure
// detection fires; the /metrics scrape must show the node's backlog; and
// the scripted kill of the slowed node must appear in the event stream as
// an ordered failover -> replace pair — with the sink still receiving
// every record exactly once.
func TestObservabilityIntegration(t *testing.T) {
	c, load := monitored(t, river.Config{MetricsAddr: "127.0.0.1:0"})

	// Throttle a node hosting only a replica, so its death is survivable
	// without loss: ingest now outruns the relay and the streamin emit
	// queue backs up.
	victim, victimUnit := c.HostingOnly(river.RoleReplica)
	cur, throttledAt := c.Cursor(), time.Now()
	c.Throttle(victim).Set(50 * time.Millisecond)

	// The anomaly event must name the slowed node and a saturating metric
	// while the node is still alive — before any failure detection.
	anomaly := c.WaitEvent(cur, "anomaly event for the slowed node", func(e obs.Event) bool {
		return e.Type == obs.EventFailover || e.Type == obs.EventAnomaly && e.Node == victim
	})
	if anomaly.Type == obs.EventFailover {
		t.Fatalf("failure detection fired before any anomaly: %+v", anomaly)
	}
	if anomaly.Metric == "" || anomaly.Score <= 0 {
		t.Errorf("anomaly event lacks metric or score: %+v", anomaly)
	}
	t.Logf("anomaly %v after throttling: %s %s=%g (z=%.1f)",
		time.Since(throttledAt), anomaly.Node, anomaly.Metric, anomaly.Value, anomaly.Score)

	// The scrape must show the victim's backlog.
	resp, err := http.Get("http://" + c.Coord.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	depth := metricValue(t, string(body), fmt.Sprintf(`dynriver_node_queue_depth{node=%q}`, victim))
	peak := metricValue(t, string(body), fmt.Sprintf(`dynriver_node_queue_peak{node=%q}`, victim))
	if depth <= 0 {
		t.Errorf("slowed node's backlog gauge reads %g; want > 0", depth)
	}
	if peak < depth {
		t.Errorf("queue peak %g below current depth %g", peak, depth)
	}

	// Scripted kill: the event stream must record failover then replace,
	// in order, and the sink must still see every record exactly once.
	killAndReconverge(t, c, victim, river.RoleSplit, river.RoleReplica, 3)
	events, err := river.FetchEvents(c.Coord.Addr(), "", anomaly.Seq, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var failSeq, replSeq uint64
	for _, e := range events {
		if e.Type == obs.EventFailover && e.Node == victim && failSeq == 0 {
			failSeq = e.Seq
		}
		if e.Type == obs.EventReplace && e.Unit == victimUnit && e.Node != victim {
			replSeq = e.Seq
		}
	}
	if failSeq == 0 || replSeq == 0 || failSeq >= replSeq {
		t.Errorf("kill not recorded as ordered failover(%d) -> replace(%d): %+v", failSeq, replSeq, events)
	}
	c.Sink("").AwaitMore(300)
	auditExactlyOnce(t, c.Sink(""), load.End(), "the slowed replica's death")
}

// TestRemediationIntegration is the acceptance scenario for the closed
// loop: a 3-replica relay group under sustained load, one replica node
// artificially slowed. The monitor must flag it, the remediation policy
// must pre-emptively drain it — the ordered event trail reading
// anomaly -> remediation(triggered, started) -> drain -> drained ->
// remediation(completed) — after which the node hosts nothing and its
// death is a non-event: zero lost records, zero duplicates, zero repairs.
func TestRemediationIntegration(t *testing.T) {
	c, load := monitored(t, river.Config{
		DrainSettle: 150 * time.Millisecond,
		// The closed loop: drain the flagged node, for real. MaxConcurrent 2
		// leaves headroom in case a neighbor blips past the threshold while
		// the victim's drain is in flight.
		Remediate: river.RemediateConfig{Mode: river.RemediateDrain, Cooldown: time.Minute, MaxConcurrent: 2},
	})
	// Throttle a node hosting only a replica: the one kind of unit the
	// remediation drain may legally move.
	victim, victimUnit := c.HostingOnly(river.RoleReplica)
	cur, throttledAt := c.Cursor(), time.Now()
	c.Throttle(victim).Set(50 * time.Millisecond)
	t.Logf("throttled %s (hosting %s)", victim, victimUnit)

	// The loop must close unattended: anomaly, then the remediation pair,
	// then the drain pair, then completion — strictly ordered, all naming
	// the victim, with no failure detection anywhere in the trail.
	c.WaitEvent(cur, "remediation completed", func(e obs.Event) bool {
		return e.Type == obs.EventFailover || e.Type == obs.EventRemediation && e.Node == victim && e.Phase == obs.RemPhaseCompleted
	})
	events, err := river.FetchEvents(c.Coord.Addr(), "", cur, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var anomSeq, trigSeq, startSeq, drainSeq, drainedSeq, doneSeq uint64
	first := func(seq *uint64, e obs.Event) {
		if *seq == 0 {
			*seq = e.Seq
		}
	}
	for _, e := range events {
		switch {
		case e.Type == obs.EventFailover:
			t.Fatalf("failure detection fired during remediation: %+v", e)
		case e.Type == obs.EventAnomaly && e.Node == victim:
			first(&anomSeq, e)
		case e.Type == obs.EventRemediation && e.Node == victim && e.Phase == obs.RemPhaseTriggered:
			first(&trigSeq, e)
		case e.Type == obs.EventRemediation && e.Node == victim && e.Phase == obs.RemPhaseStarted:
			first(&startSeq, e)
			if !strings.Contains(e.Detail, victimUnit) {
				t.Fatalf("started event does not name the drained unit: %+v", e)
			}
		case e.Type == obs.EventRemediation && e.Node == victim && e.Phase == obs.RemPhaseCompleted:
			first(&doneSeq, e)
		case e.Type == obs.EventDrain && e.Unit == victimUnit:
			first(&drainSeq, e)
		case e.Type == obs.EventDrained && e.Unit == victimUnit:
			first(&drainedSeq, e)
		}
	}
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
	if units := c.Units(river.RoleReplica); len(units) != 3 || slices.Contains(slices.Collect(maps.Values(units)), victim) {
		t.Fatalf("after the drain of %s: replicas %v", victim, units)
	}
	for _, p := range c.Coord.Status().Placements {
		if p.Node == victim {
			t.Fatalf("drained node still hosts %s", p.Seg)
		}
	}

	// Killing the idle node is a non-event: nothing hosted, nothing lost,
	// no failover re-placement.
	preKill := c.Cursor()
	c.Kill(victim)
	c.Sink("").AwaitMore(300)
	for _, e := range c.Coord.Events().Since(preKill, nil) {
		if e.Type == obs.EventFailover && strings.Contains(e.Detail, victimUnit) {
			t.Fatalf("idle node's death lost units: %+v", e)
		}
		if e.Type == obs.EventReplace && e.Unit == victimUnit {
			t.Fatalf("drained unit re-placed after the idle death: %+v", e)
		}
	}
	auditExactlyOnce(t, c.Sink(""), load.End(), "the remediation")
}
