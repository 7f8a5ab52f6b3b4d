package river

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rivertest/eventwait"
)

// decodeSegments unmarshals a heartbeat Segments payload exactly as the
// coordinator's wire would, so rollup tests consume the bytes an agent
// emits.
func decodeSegments(t *testing.T, payload string) []SegmentStatus {
	t.Helper()
	var segs []SegmentStatus
	if err := json.Unmarshal([]byte(payload), &segs); err != nil {
		t.Fatalf("decode heartbeat payload: %v", err)
	}
	return segs
}

// TestRollupStatusFromHeartbeats drives the scrape-time gauge rollup with
// a synthetic cluster snapshot assembled from hand-serialized heartbeat
// payloads — each node exercising one family of (omitempty) telemetry
// fields — and asserts the per-node and per-pipeline series. Absent
// fields must roll up as zeros.
func TestRollupStatusFromHeartbeats(t *testing.T) {
	heartbeats := map[string]string{
		// Only the base counters; flow fields decode as zero.
		"bare-node": `[{"name":"sa","type":"t","addr":"127.0.0.1:19001","processed":50,"emitted":40,"conns":1,"bad_closes":0}]`,
		// Flow telemetry.
		"flow-node": `[{"name":"sb","type":"t","addr":"127.0.0.1:19002","processed":80,"emitted":60,"conns":1,"bad_closes":0,"queue_depth":3,"queue_cap":256,"records_out":60,"batches_out":2,"bytes_out":512}]`,
		// Replication counters.
		"repl-node": `[{"name":"g/split","type":"","addr":"127.0.0.1:19003","processed":90,"emitted":90,"conns":1,"bad_closes":0,"role":"split","legs":3,"leg_drops":7},{"name":"g/merge","type":"","addr":"127.0.0.1:19004","processed":90,"emitted":30,"conns":3,"bad_closes":0,"role":"merge","legs":3,"dups":9,"skipped":2}]`,
		// A pipeline-scoped unit name and the queue high-water mark.
		"peak-node": `[{"name":"pa:sc","type":"t","addr":"127.0.0.1:19005","processed":10,"emitted":10,"conns":1,"bad_closes":0,"queue_depth":5,"queue_cap":128,"queue_peak":77}]`,
		// Detector alert counts and latency quantiles; the rollup takes the
		// worst p99 across a node's segments, in seconds.
		"lat-node": `[{"name":"pa:sd","type":"t","addr":"127.0.0.1:19006","processed":20,"emitted":20,"conns":1,"bad_closes":0,"alerts":5,"lat_p50_us":200,"lat_p99_us":1500,"e2e_p50_us":800,"e2e_p99_us":9000},{"name":"pa:se","type":"t","addr":"127.0.0.1:19007","processed":20,"emitted":20,"conns":1,"bad_closes":0,"alerts":2,"lat_p99_us":700}]`,
		// The corrupt-batch counter.
		"crc-node": `[{"name":"pa:sf","type":"t","addr":"127.0.0.1:19008","processed":30,"emitted":30,"conns":1,"bad_closes":0,"corrupt_batches":4},{"name":"pa:sg","type":"t","addr":"127.0.0.1:19009","processed":30,"emitted":30,"conns":1,"bad_closes":0,"corrupt_batches":1}]`,
	}
	st := &ClusterStatus{Epoch: 3, SinkAddr: "127.0.0.1:9"}
	for name, payload := range heartbeats {
		st.Nodes = append(st.Nodes, NodeStatus{
			Name: name, LastBeatMS: 12,
			Segments: decodeSegments(t, payload),
		})
	}
	st.Pipelines = []PipelineStatus{
		{ID: "pa", SinkAddr: "127.0.0.1:9", Placements: []PlacementStatus{
			{Seg: "pa:sc", Placed: true, Node: "peak-node"},
			{Seg: "pa:sd", Placed: false},
		}},
		{ID: "pb", SinkAddr: "127.0.0.1:9", Placements: []PlacementStatus{
			{Seg: "pb:se", Placed: true, Node: "flow-node"},
		}},
	}

	reg := obs.NewRegistry()
	rollupStatus(reg, st)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		`dynriver_coord_epoch 3`,
		`dynriver_coord_nodes 6`,
		`dynriver_coord_pipelines 2`,
		// Absent telemetry rolls up as zeros.
		`dynriver_node_queue_depth{node="bare-node"} 0`,
		`dynriver_node_lag{node="bare-node"} 10`,
		// Flow telemetry visible.
		`dynriver_node_queue_depth{node="flow-node"} 3`,
		`dynriver_node_queue_cap{node="flow-node"} 256`,
		`dynriver_node_lag{node="flow-node"} 20`,
		// Replication counters summed across the node's two endpoints.
		`dynriver_node_segments{node="repl-node"} 2`,
		`dynriver_node_leg_drops{node="repl-node"} 7`,
		`dynriver_node_gap_skips{node="repl-node"} 2`,
		`dynriver_node_dups{node="repl-node"} 9`,
		// The queue high-water mark.
		`dynriver_node_queue_peak{node="peak-node"} 77`,
		// Alert counts summed, latency quantiles worst-of across segments
		// (1500us and 700us -> 0.0015s; e2e only on one segment).
		`dynriver_node_alerts{node="lat-node"} 7`,
		`dynriver_node_latency_p99_seconds{node="lat-node"} 0.0015`,
		`dynriver_node_e2e_latency_p99_seconds{node="lat-node"} 0.009`,
		// Corrupt-batch counts summed across the node's segments.
		`dynriver_node_corrupt_batches{node="crc-node"} 5`,
		`dynriver_node_alerts{node="peak-node"} 0`,
		`dynriver_node_corrupt_batches{node="lat-node"} 0`,
		// Per-pipeline rollups.
		`dynriver_pipeline_units{pipeline="pa"} 2`,
		`dynriver_pipeline_placed{pipeline="pa"} 1`,
		`dynriver_pipeline_placed{pipeline="pb"} 1`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("rollup missing %q in:\n%s", want, got)
		}
	}

	// A second rollup over a shrunken cluster must retire the departed
	// node's and removed pipeline's series, not freeze them.
	st.Nodes = st.Nodes[:0]
	st.Pipelines = st.Pipelines[:1]
	rollupStatus(reg, st)
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got = buf.String()
	if strings.Contains(got, `node="flow-node"`) {
		t.Errorf("departed node's gauges linger after rollup:\n%s", got)
	}
	if strings.Contains(got, `pipeline="pb"`) {
		t.Errorf("removed pipeline's gauges linger after rollup:\n%s", got)
	}
}

// TestEventStreamScriptedFailover scripts a node death against a
// coordinator and audits the control-plane event stream over the
// watch_events verb: registrations, the initial placement, then an
// ordered failover -> replace pair naming the victim and the survivor.
func TestEventStreamScriptedFailover(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "seg", Type: "t"}},
			SinkAddr: "127.0.0.1:9",
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		MinNodes:          2,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// A follow-mode watcher runs across the whole scenario, proving live
	// delivery sees the same stream the backlog fetch replays later.
	var liveMu sync.Mutex
	var live []obs.Event
	wctx, wcancel := context.WithCancel(context.Background())
	watchDone := make(chan error, 1)
	go func() {
		watchDone <- WatchEvents(wctx, coord.Addr(), "", 0, func(e obs.Event) {
			liveMu.Lock()
			live = append(live, e)
			liveMu.Unlock()
		})
	}()

	n1 := newFakeAgent(t, coord.Addr(), "n1", "127.0.0.1:19001")
	defer n1.close()
	n2 := newFakeAgent(t, coord.Addr(), "n2", "127.0.0.1:19002")
	defer n2.close()
	eventwait.For(t, coord.Events(), 0, "initial placement", eventwait.Is(obs.EventPlace, "seg", ""))
	victim := coord.Status().Placements[0].Node
	survivor := "n2"
	if victim == "n2" {
		survivor = "n1"
	}
	if victim == "n1" {
		n1.close()
	} else {
		n2.close()
	}
	eventwait.For(t, coord.Events(), 0, "re-placement on the survivor", eventwait.Is(obs.EventReplace, "seg", survivor))

	events, err := FetchEvents(coord.Addr(), "", 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	find := func(match func(obs.Event) bool) *obs.Event {
		for i := range events {
			if match(events[i]) {
				return &events[i]
			}
		}
		return nil
	}
	registers := 0
	for _, e := range events {
		if e.Type == obs.EventRegister {
			registers++
		}
	}
	if registers != 2 {
		t.Errorf("want 2 register events, got %d in %+v", registers, events)
	}
	place := find(func(e obs.Event) bool { return e.Type == obs.EventPlace && e.Unit == "seg" })
	fail := find(func(e obs.Event) bool { return e.Type == obs.EventFailover && e.Node == victim })
	repl := find(func(e obs.Event) bool { return e.Type == obs.EventReplace && e.Unit == "seg" && e.Node == survivor })
	if place == nil || fail == nil || repl == nil {
		t.Fatalf("missing place/failover/replace events: %+v", events)
	}
	if !(place.Seq < fail.Seq && fail.Seq < repl.Seq) {
		t.Errorf("events out of order: place=%d failover=%d replace=%d", place.Seq, fail.Seq, repl.Seq)
	}
	if !strings.Contains(fail.Detail, "seg") {
		t.Errorf("failover event does not name the lost unit: %+v", fail)
	}
	// Sequence numbers must be strictly increasing across the stream.
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("non-monotonic seqs at %d: %+v", i, events)
		}
	}

	// sinceSeq replays only the suffix.
	tail, err := FetchEvents(coord.Addr(), "", place.Seq, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tail {
		if e.Seq <= place.Seq {
			t.Fatalf("sinceSeq ignored: got seq %d <= %d", e.Seq, place.Seq)
		}
	}

	// The live watcher must have seen the same failover and replace.
	eventwait.Until(t, "live watcher caught up", func() bool {
		liveMu.Lock()
		defer liveMu.Unlock()
		var sawFail, sawRepl bool
		for _, e := range live {
			if e.Type == obs.EventFailover && e.Node == victim {
				sawFail = true
			}
			if e.Type == obs.EventReplace && e.Node == survivor {
				sawRepl = true
			}
		}
		return sawFail && sawRepl
	})
	wcancel()
	if err := <-watchDone; err != nil {
		t.Fatalf("watch: %v", err)
	}
}

// TestEventStreamPipelineFilter checks the watch_events pipeline scope: a
// filtered fetch returns the named pipeline's events plus the
// cluster-wide ones, and never another pipeline's.
func TestEventStreamPipelineFilter(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{
			{ID: "pa", Segments: []SegmentSpec{{Name: "sa", Type: "t"}}, SinkAddr: "127.0.0.1:9"},
			{ID: "pb", Segments: []SegmentSpec{{Name: "sb", Type: "t"}}, SinkAddr: "127.0.0.1:9"},
		},
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
	for _, pipe := range []string{"pa", "pb"} {
		eventwait.For(t, coord.Events(), 0, pipe+" placed", func(e obs.Event) bool { return e.Type == obs.EventEntry && e.Pipeline == pipe })
	}
	events, err := FetchEvents(coord.Addr(), "pa", 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var sawPa, sawRegister bool
	for _, e := range events {
		if e.Pipeline == "pb" {
			t.Errorf("pb event leaked through the pa filter: %+v", e)
		}
		if e.Pipeline == "pa" && e.Type == obs.EventPlace {
			sawPa = true
		}
		if e.Type == obs.EventRegister {
			sawRegister = true
		}
	}
	if !sawPa || !sawRegister {
		t.Errorf("filtered stream missing pa place or cluster-wide register: %+v", events)
	}
}

// TestCoordinatorMetricsEndpoint starts a coordinator with the opt-in
// observability endpoint and scrapes /metrics over real HTTP: the
// coordinator internals and the heartbeat-aggregated per-node gauges must
// be present in Prometheus text format.
func TestCoordinatorMetricsEndpoint(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "seg", Type: "t"}},
			SinkAddr: "127.0.0.1:9",
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		MetricsAddr:       "127.0.0.1:0",
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if coord.MetricsAddr() == "" {
		t.Fatal("metrics endpoint not bound")
	}
	n1 := newFakeAgent(t, coord.Addr(), "n1", "127.0.0.1:19001")
	defer n1.close()
	n1.setStats([]SegmentStatus{{Name: "seg", Type: "t", Addr: "127.0.0.1:19001",
		Processed: 30, Emitted: 20, QueueDepth: 5, QueueCap: 256, QueuePeak: 17}})
	eventwait.Until(t, "placement and telemetry", func() bool {
		st := coord.Status()
		return st.Placements[0].Placed && len(st.Nodes) == 1 && len(st.Nodes[0].Segments) == 1
	})

	scrape := func() string {
		t.Helper()
		resp, err := http.Get("http://" + coord.MetricsAddr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	got := scrape()
	for _, want := range []string{
		"dynriver_coord_epoch 1",
		"dynriver_coord_nodes 1",
		`dynriver_node_queue_depth{node="n1"} 5`,
		`dynriver_node_queue_peak{node="n1"} 17`,
		`dynriver_node_lag{node="n1"} 10`,
		`dynriver_coord_events_total{type="register"} 1`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("scrape missing %q in:\n%s", want, got)
		}
	}
	// pprof rides on the same endpoint.
	resp, err := http.Get("http://" + coord.MetricsAddr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof status %d", resp.StatusCode)
	}
}
