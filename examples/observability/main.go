// Observability: demonstrates the self-monitoring loop end-to-end — a
// 3-replica relay pipeline under sustained load, with the coordinator
// serving Prometheus metrics and recording every control-plane
// transition as a typed event. One replica node is artificially slowed
// mid-stream: the coordinator's monitor (streaming z-score detectors
// over the telemetry already carried in heartbeats) flags the degrading
// node as an "anomaly" event while it is still alive — before failure
// detection would notice — and the /metrics scrape shows its backlog
// and per-node latency quantiles. The remediation policy then *acts* on
// the anomaly: it pre-emptively drains the flagged node (a zero-repair
// boundary splice), narrating every decision as a typed "remediation"
// event. By the time the degraded node is killed it hosts nothing, so
// its death is a non-event — no failover, no repair. The event log
// replays the whole history in order: register, place, anomaly,
// remediation, drain, drained. The sink audits that every record still
// arrived exactly once.
//
// The same stream is available against a real deployment via
// `dynriver events` (and `dynriver coord -react=drain -metrics-addr`
// for the live loop); examples/anomaly shows the detector family
// offline.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/river"
	"repro/internal/rivertest"
	"repro/internal/rivertest/eventwait"
)

// scrapeValue pulls one series' value out of a Prometheus text scrape.
func scrapeValue(scrape, series string) (string, bool) {
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v, true
		}
	}
	return "", false
}

func eventLine(e obs.Event) string {
	parts := []string{}
	if e.Phase != "" {
		parts = append(parts, "phase="+e.Phase)
	}
	if e.Unit != "" {
		parts = append(parts, "unit="+e.Unit)
	}
	if e.Node != "" {
		parts = append(parts, "node="+e.Node)
	}
	if e.Metric != "" {
		// Metric/Value/Score already say everything Detail repeats.
		phase := ""
		if e.Phase != "" {
			phase = " phase=" + e.Phase
		}
		return fmt.Sprintf("%4d %-10s%s node=%s %s=%g z=%.1f", e.Seq, e.Type, phase, e.Node, e.Metric, e.Value, e.Score)
	}
	if e.Detail != "" {
		parts = append(parts, fmt.Sprintf("(%s)", e.Detail))
	}
	return fmt.Sprintf("%4d %-10s %s", e.Seq, e.Type, strings.Join(parts, " "))
}

func main() {
	t := &rivertest.Main{}
	defer t.Close()

	// Control plane with the full observability surface: a metrics
	// endpoint on a loopback port and the monitor sampling every 150ms.
	// The cadence is deliberately slow relative to the queue's fill rate
	// so a saturating node shows up as a level shift the z-score flags on
	// its first sample, not a ramp the EWMA baseline absorbs. Every node
	// hosts a relay whose per-record cost can be turned up; the terminal
	// sink audits exactly-once delivery.
	c := rivertest.Start(t, river.Config{
		Pipelines:   rivertest.Pipeline(river.SegmentSpec{Name: "relay", Type: "relay", Replicas: 3}),
		MinNodes:    4,
		DrainSettle: 150 * time.Millisecond,
		MetricsAddr: "127.0.0.1:0",
		Monitor: river.MonitorConfig{
			Interval:  150 * time.Millisecond,
			Alpha:     0.1,
			Warmup:    8,
			Threshold: 6,
			Cooldown:  time.Minute,
		},
		// The acted-on half: anomalies trigger a pre-emptive drain of
		// the flagged node. MaxConcurrent 2 keeps a spurious blip on a
		// neighbor from starving the real victim's drain.
		Remediate: river.RemediateConfig{
			Mode:          river.RemediateDrain,
			Cooldown:      time.Minute,
			MaxConcurrent: 2,
		},
	}, 4)
	fmt.Printf("phase 1: metrics on http://%s/metrics (pprof on /debug/pprof)\n", c.Coord.MetricsAddr())
	fmt.Println("phase 1: replicated topology placed, event log recording")

	// Sustained numbered load through the splitter entry.
	sink := c.Sink("")
	load := c.Load(rivertest.LoadSpec{})
	sink.AwaitReceived(300)
	time.Sleep(1200 * time.Millisecond) // the monitor's warmup window on healthy traffic

	// Phase 2: degrade a replica-only node (replica legs are drainable;
	// splitter/merger endpoints are not) and wait for the monitor to
	// flag it. Failure detection must NOT have fired — the whole point is
	// catching the node while it is still alive.
	victim, victimUnit := c.HostingOnly(river.RoleReplica)
	fmt.Printf("phase 2: slowing %s (hosts %s) by 50ms/record under load\n", victim, victimUnit)
	cur, throttledAt := c.Cursor(), time.Now()
	c.Throttle(victim).Set(50 * time.Millisecond)
	failedOr := func(match func(obs.Event) bool) func(obs.Event) bool {
		return func(e obs.Event) bool { return e.Type == obs.EventFailover || match(e) }
	}
	anomaly := c.WaitEvent(cur, "anomaly event for the slowed node", failedOr(func(e obs.Event) bool {
		return e.Type == obs.EventAnomaly && e.Node == victim
	}))
	if anomaly.Type == obs.EventFailover {
		log.Fatalf("failure detection beat the monitor: %+v", anomaly)
	}
	fmt.Printf("phase 2: anomaly flagged %.0fms after throttling: node=%s %s=%g (z-score %.1f)\n",
		time.Since(throttledAt).Seconds()*1000, anomaly.Node, anomaly.Metric, anomaly.Value, anomaly.Score)

	// The metrics endpoint shows the same backlog to any scraper.
	resp, err := http.Get("http://" + c.Coord.MetricsAddr() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	// (e2e quantiles need a probe source — `station -probes` — so only
	// the per-unit latency gauge is live in this example.)
	for _, gauge := range []string{
		"dynriver_node_queue_depth", "dynriver_node_queue_peak",
		"dynriver_node_latency_p99_seconds",
	} {
		series := fmt.Sprintf("%s{node=%q}", gauge, victim)
		if v, ok := scrapeValue(string(body), series); ok {
			fmt.Printf("phase 2: /metrics %s %s\n", series, v)
		}
	}

	// Phase 3: the remediation policy acts on the anomaly — triggered,
	// started, then a zero-repair drain of the victim's unit. Failure
	// detection must stay silent throughout: the node is slow, not dead.
	started := c.WaitEvent(anomaly.Seq, "remediation of "+victim, failedOr(func(e obs.Event) bool {
		return e.Type == obs.EventRemediation && e.Phase == obs.RemPhaseStarted && e.Node == victim
	}))
	drained := c.WaitEvent(started.Seq, "drain of "+victimUnit, failedOr(eventwait.Is(obs.EventDrained, victimUnit, "")))
	if started.Type == obs.EventFailover || drained.Type == obs.EventFailover {
		log.Fatalf("failure detection fired during remediation: %+v %+v", started, drained)
	}
	fmt.Printf("phase 3: remediation drained %s off %s %.0fms after throttling\n",
		victimUnit, victim, time.Since(throttledAt).Seconds()*1000)
	for _, p := range c.Coord.Status().Placements {
		if p.Node == victim {
			log.Fatalf("drained node still hosts %s", p.Seg)
		}
	}

	// Phase 4: the degraded node dies — hosting nothing. A pre-emptively
	// drained node's death is a non-event: no failover, no repair.
	fmt.Printf("phase 4: killing %s (now idle)\n", victim)
	c.Kill(victim)
	sink.AwaitMore(300)

	// Drain the load and wait for every record and the session's close.
	sent := load.End()
	sink.Await("the final drain", func(t rivertest.Tally) bool { return t.Received >= sent && t.Closes > 0 })

	// Replay the recorded history — what `dynriver events` prints.
	events, err := river.FetchEvents(c.Coord.Addr(), "", 0, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nevent log replay:")
	for _, e := range events {
		fmt.Println("  " + eventLine(e))
		// No node holding units ever died, so any failover means the
		// pre-emptive drain failed at its one job.
		if e.Type == obs.EventFailover {
			log.Fatalf("unexpected failover in history: %+v", e)
		}
	}

	a := sink.Audit(sent)
	fmt.Printf("\naudit: sent=%d missing=%d duplicated=%d repairs=%d\n", sent, a.Missing, a.Duplicated, a.Repairs)
	if a.Missing != 0 || a.Duplicated != 0 || a.Repairs != 0 {
		log.Fatal("exactly-once audit failed")
	}
	fmt.Println("\nobservability: the monitor flagged the degrading node, remediation " +
		"drained it while still alive, and its death cost nothing — the event log " +
		"told the whole story in order")
}
