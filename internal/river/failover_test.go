package river_test

import (
	"errors"
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/river"
	"repro/internal/rivertest"
	"repro/internal/rivertest/eventwait"
	"repro/internal/synth"
)

// auditExactlyOnce waits for all sent records at the sink and fails on
// any loss, duplicate or scope repair across what.
func auditExactlyOnce(t *testing.T, sink *rivertest.Sink, sent int, what string) {
	t.Helper()
	sink.AwaitReceived(sent)
	a := sink.Audit(sent)
	t.Logf("sent=%d: %v", sent, a)
	if a.Missing != 0 {
		t.Errorf("%d of %d records lost across %s", a.Missing, sent, what)
	}
	if a.Duplicated != 0 {
		t.Errorf("%d of %d records duplicated across %s", a.Duplicated, sent, what)
	}
	if a.Repairs != 0 {
		t.Errorf("%d scope repairs reached the sink across %s; it must be invisible downstream", a.Repairs, what)
	}
}

// killAndReconverge kills node and waits until the fan-out endpoint
// (role fanOut) carries k legs again, with the k leg units (role leg)
// on distinct live nodes.
func killAndReconverge(t *testing.T, c *rivertest.Cluster, node, fanOut, leg string, k int) {
	t.Helper()
	unit, cur, killedAt := c.Unit(fanOut), c.Cursor(), time.Now()
	c.Kill(node)
	c.WaitEvent(cur, "re-converged legs", func(e obs.Event) bool {
		return e.Type == obs.EventLegs && e.Unit == unit && e.Value == float64(k)
	})
	t.Logf("re-converged %v after killing %s", time.Since(killedAt), node)
	if legs := c.Units(leg); len(legs) != k || rivertest.Distinct(legs) != k || slices.Contains(slices.Collect(maps.Values(legs)), node) {
		t.Fatalf("legs after the kill of %s: %v", node, legs)
	}
}

// TestControlPlanePassthrough boots a coordinator and one agent, lets the
// coordinator place an identity segment, and checks records flow from the
// entry address through the agent-hosted segment to the sink.
func TestControlPlanePassthrough(t *testing.T) {
	c := rivertest.Start(t, river.Config{Pipelines: rivertest.Pipeline(river.SegmentSpec{Name: "ident", Type: "ident"})}, 1)
	if c.Coord.EntryAddr() == "" {
		t.Fatal("placed but no entry address")
	}
	if st := c.Coord.Status(); len(st.Placements) != 1 || !st.Placements[0].Placed || st.Placements[0].Node != "node-a" {
		t.Fatalf("unexpected placements: %+v", st.Placements)
	}
	load := c.Load(rivertest.LoadSpec{})
	c.Sink("").AwaitReceived(25)
	n := load.End()
	if a := c.Sink("").AwaitReceived(n); a.Duplicated != 0 {
		t.Fatalf("records duplicated: %v", a)
	}
	// Heartbeats must carry the hosted segment's counters.
	c.Until("heartbeat stats", func() bool {
		st := c.Coord.Status()
		return len(st.Nodes) == 1 && len(st.Nodes[0].Segments) == 1 && st.Nodes[0].Segments[0].Processed >= uint64(n)
	})
}

// TestTwoSegmentChainRedirect places a two-segment chain, kills the node
// hosting the downstream segment, and verifies the coordinator both
// re-places it and redirects the surviving upstream segment at the new
// address — the mid-chain splice, where the upstream neighbor is a hosted
// segment rather than the source.
func TestTwoSegmentChainRedirect(t *testing.T) {
	c := rivertest.Start(t, river.Config{
		Pipelines: rivertest.Pipeline(river.SegmentSpec{Name: "first", Type: "ident"}, river.SegmentSpec{Name: "second", Type: "ident"}),
		// Spread plus the bootstrap gate puts the two segments on
		// different nodes: nothing places until all three agents have
		// registered.
		Placer:   &river.Spread{},
		MinNodes: 3,
	}, 3)
	c.Load(rivertest.LoadSpec{Pace: 2 * time.Millisecond})
	c.Sink("").AwaitReceived(1)
	victim := c.Placement("second").Node
	if victim == c.Placement("first").Node {
		t.Fatalf("spread placement failed: %+v", c.Coord.Status().Placements)
	}
	cur := c.Cursor()
	c.Kill(victim)
	re := c.WaitEvent(cur, "second re-placed", eventwait.Is(obs.EventReplace, "second", ""))
	if re.Node == victim {
		t.Fatalf("second re-placed on the dead node: %+v", re)
	}
	// The surviving upstream segment must now forward to the new
	// instance: records sent to the unchanged entry still reach the sink.
	c.WaitEvent(cur, "first redirected", func(e obs.Event) bool {
		return e.Type == obs.EventRedirect && e.Unit == "first" && e.Addr == re.Addr
	})
	c.Sink("").AwaitMore(1)
}

// bombOp forwards records until it sees the value 666, then fails —
// simulating an operator crash that kills the hosted pipeline while the
// node itself stays healthy.
type bombOp struct{}

func (bombOp) Name() string { return "bomb" }

func (bombOp) Process(r *record.Record, out pipeline.Emitter) error {
	if v, err := r.Float64s(); err == nil && len(v) > 0 && v[0] == 666 {
		return errors.New("bomb triggered")
	}
	return out.Emit(r)
}

// TestSegmentFailureFailover covers the failure mode heartbeat expiry
// cannot see: the hosted segment's pipeline dies on an operator error
// while its node keeps beating. The heartbeat must report the instance as
// failed and the coordinator must re-place it.
func TestSegmentFailureFailover(t *testing.T) {
	c := rivertest.New(t, river.Config{Pipelines: rivertest.Pipeline(river.SegmentSpec{Name: "seg", Type: "bomb"})})
	c.Register = func(reg *pipeline.Registry) {
		reg.Register("bomb", func() []pipeline.Operator { return []pipeline.Operator{bombOp{}} })
	}
	c.StartNodes("node-a", "node-b")
	c.WaitPlaced()
	send := func(addr string, val float64) {
		out := pipeline.NewStreamOut(addr)
		defer out.Close()
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s([]float64{val})
		if err := out.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	firstAddr := c.Placement("seg").Addr
	send(firstAddr, 1)
	c.Sink("").AwaitReceived(1)

	// Detonate the operator: the hosted pipeline dies, the node survives.
	cur := c.Cursor()
	send(firstAddr, 666)
	re := c.WaitEvent(cur, "failed segment re-placed", eventwait.Is(obs.EventReplace, "seg", ""))
	if re.Addr == firstAddr {
		t.Fatalf("failed segment re-placed at its old address: %+v", re)
	}
	// Both nodes must still be registered: this was a segment death, not
	// a node death.
	if st := c.Coord.Status(); len(st.Nodes) != 2 {
		t.Fatalf("expected both nodes alive after segment failure, got %+v", st.Nodes)
	}
	// The re-placed instance carries traffic again.
	send(re.Addr, 2)
	c.Sink("").AwaitReceived(2)
}

// TestFailoverIntegration is the acceptance scenario for the control
// plane: a coordinator, two node agents, a station source and a
// validating sink run in-process; one agent is killed mid-clip. The
// coordinator must re-place the extraction segment on the survivor within
// the heartbeat timeout, and the sink must observe at least one
// BadCloseScope repair from the severed stream plus at least one complete
// ensemble extracted after failover — proving the automated recomposition
// heals the pipeline rather than merely restarting it.
func TestFailoverIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("full failover scenario with the acoustic segment")
	}
	const heartbeatTimeout = time.Second
	c := rivertest.Start(t, river.Config{
		Pipelines:         rivertest.Pipeline(river.SegmentSpec{Name: "extract", Type: "extract"}),
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  heartbeatTimeout,
	}, 2)
	sink, out := c.Sink(""), c.Stream("")
	consume := func(r *record.Record) {
		if err := out.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	station := synth.NewStation("kbs-01", 11, synth.ClipConfig{Seconds: 8, Events: 2})
	sendClip := func() {
		clip, id, err := station.NextClip()
		if err != nil {
			t.Fatal(err)
		}
		c := ops.Clip{ID: id, Station: station.Name, SampleRate: clip.SampleRate, Samples: clip.Samples}
		if err := ops.EmitClip(pipeline.EmitterFunc(out.Consume), &c); err != nil {
			t.Fatalf("emit clip %s: %v", id, err)
		}
	}

	// Phase 1: a full clip flows through the placed segment; the sink
	// must extract at least one complete ensemble.
	sendClip()
	sink.Await("pre-failover ensembles", func(t rivertest.Tally) bool { return t.Ensembles >= 1 })

	// Phase 2: open a clip scope and stream part of its audio, then kill
	// the hosting node mid-clip, once the partial clip has reached the
	// terminal through the victim so scopes are open across both hops.
	open := record.NewOpenScope(record.ScopeClip, 0)
	open.SetContext(map[string]string{record.CtxSampleRate: "24576", record.CtxClipID: "doomed"})
	consume(open)
	doomed := record.NewData(record.SubtypeAudio)
	doomed.SetFloat64s(make([]float64, ops.RecordSamples))
	for range 8 {
		consume(doomed)
	}
	sink.Await("the partial clip at the terminal", func(t rivertest.Tally) bool { return t.Open > 0 })
	victim := c.Placement("extract").Node
	cur, killedAt := c.Cursor(), time.Now()
	c.Kill(victim)

	// The coordinator must re-place the segment on the survivor within
	// the heartbeat timeout.
	re := c.WaitEvent(cur, "re-placement on the surviving node", eventwait.Is(obs.EventReplace, "extract", ""))
	if elapsed := time.Since(killedAt); re.Node == victim || elapsed > heartbeatTimeout {
		t.Fatalf("re-placed on %s %v after the kill of %s", re.Node, elapsed, victim)
	}

	// Phase 3: finish the doomed clip (its stray records are discarded at
	// the new instance's scope tracker) and send one more full clip; the
	// sink must see the scope repair and fresh complete ensembles.
	before := sink.Tally().Ensembles
	consume(doomed)
	consume(record.NewCloseScope(record.ScopeClip, 0))
	sendClip()
	sink.Await("scope repair and post-failover ensembles", func(t rivertest.Tally) bool {
		return t.Repairs >= 1 && t.Ensembles > before
	})

	// Orderly teardown: stop the survivor (closing its terminal
	// connection at scope depth 0), then check stream hygiene.
	_ = out.Close()
	c.Kill(c.Nodes()...)
	got := sink.Await("terminal scopes drained", func(t rivertest.Tally) bool { return t.Open == 0 })
	t.Logf("ensembles=%d %v", got.Ensembles, got)
	if got.Violations != 0 {
		t.Errorf("sink observed %d scope violations; repairs must keep the stream structurally valid", got.Violations)
	}
	if got.Repairs < 1 {
		t.Errorf("no BadCloseScope repair observed after killing %s mid-clip", victim)
	}
	if got.Ensembles <= before {
		t.Errorf("no complete ensemble after failover (before=%d after=%d)", before, got.Ensembles)
	}
}
