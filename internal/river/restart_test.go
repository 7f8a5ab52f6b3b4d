package river_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/river"
	"repro/internal/rivertest"
	"repro/internal/rivertest/eventwait"
)

// placementMap snapshots pipeline pipe's placed units as unit -> node@addr.
func placementMap(c *river.Coordinator, pipe string) map[string]string {
	out := map[string]string{}
	for _, p := range c.Status().Placements {
		if p.Placed && p.Pipeline == pipe {
			out[p.Seg] = p.Node + "@" + p.Addr
		}
	}
	return out
}

// awaitRegistered waits until n agents have registered with the cluster's
// current coordinator.
func awaitRegistered(c *rivertest.Cluster, n int) {
	var seq uint64
	for range n {
		seq = c.WaitEvent(seq, "agents registered", eventwait.Is(obs.EventRegister, "", "")).Seq
	}
}

// TestCoordinatorRestartAdoptsDataPlane is the acceptance scenario for
// the durable control plane: a pipeline with a 3-replica group under
// sustained batched load, whose coordinator is killed and restarted over
// its journaled state. The data plane must keep flowing through the
// outage (segments detach from control sessions), the restarted
// coordinator must adopt every re-registering agent's inventory — same
// nodes, same addresses, zero re-placements, zero scope repairs, every
// record exactly once — and a node kill after the restart must still
// fail over correctly under the new epoch.
func TestCoordinatorRestartAdoptsDataPlane(t *testing.T) {
	c := rivertest.Start(t, river.Config{
		Pipelines:    rivertest.Pipeline(river.SegmentSpec{Name: "rep", Type: "relay", Replicas: 3}, river.SegmentSpec{Name: "tail", Type: "relay"}),
		MinNodes:     4,
		StateDir:     t.TempDir(),
		RestartGrace: 5 * time.Second,
	}, 4)
	if got := c.Coord.Epoch(); got != 1 {
		t.Fatalf("fresh coordinator epoch = %d, want 1", got)
	}
	entry, before := c.Coord.EntryAddr(), placementMap(c.Coord, "")
	if len(before) != 6 { // rep/merge, rep/r1-3, rep/split, tail
		t.Fatalf("expected 6 placed units, got %v", before)
	}
	sink := c.Sink("")
	load := c.Load(rivertest.LoadSpec{})
	sink.AwaitReceived(300)

	// Kill the coordinator. The agents' control sessions drop, but the
	// data plane must not notice: records keep arriving during the
	// outage — the proof that segment lifetime detached from the control
	// sessions.
	c.StopCoordinator()
	sink.AwaitMore(300)

	// Restart over the same state directory and address. The reloaded
	// state already places everything; what matters is the agents
	// re-registering and being adopted.
	c.RestartCoordinator()
	if got := c.Coord.Epoch(); got != 2 {
		t.Fatalf("restarted coordinator epoch = %d, want 2", got)
	}
	awaitRegistered(c, 4)
	after := placementMap(c.Coord, "")
	if len(after) != len(before) {
		t.Fatalf("placements after restart: %v, want %v", after, before)
	}
	for unit, where := range before {
		if after[unit] != where {
			t.Errorf("unit %s moved across the restart: %s -> %s (re-placed, not adopted)", unit, where, after[unit])
		}
	}
	if got := c.Coord.EntryAddr(); got != entry {
		t.Errorf("entry address changed across restart: %q -> %q", entry, got)
	}
	// Load must still be flowing through the adopted pipeline.
	sink.AwaitMore(300)

	// A node kill after the restart must still fail over: the new
	// coordinator must converge back to 3 replicas on distinct live
	// nodes.
	victim, _ := c.HostingOnly(river.RoleReplica)
	killAndReconverge(t, c, victim, river.RoleSplit, river.RoleReplica, 3)

	// Every record exactly once, zero scope repairs — across a
	// coordinator bounce AND a post-restart failover.
	sink.AwaitMore(300)
	auditExactlyOnce(t, sink, load.End(), "the coordinator restart")
}

// TestAgentStartsBeforeCoordinator is the startup-order satellite: an
// agent launched first must retry its dial with backoff and register once
// the coordinator appears, rather than failing permanently.
func TestAgentStartsBeforeCoordinator(t *testing.T) {
	// Reserve an address, then free it so the agent dials a dead port.
	probe, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	_ = probe.Close()

	reg := pipeline.NewRegistry()
	reg.Register("relay", func() []pipeline.Operator { return []pipeline.Operator{pipeline.Relay{}} })
	a := river.NewAgent("early-bird", addr, reg)
	a.Logf = t.Logf
	a.ReconnectMin = 10 * time.Millisecond
	a.ReconnectMax = 100 * time.Millisecond
	a.DialAttempts = 500
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx) }()

	time.Sleep(150 * time.Millisecond) // a window in which several dials fail; nothing listens to report them
	coord, err := river.NewCoordinator(river.Config{
		ListenAddr: addr,
		Pipelines: []river.PipelineSpec{{
			Segments: []river.SegmentSpec{{Name: "seg", Type: "relay"}},
			SinkAddr: "127.0.0.1:9",
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := coord.WaitPlaced(wctx); err != nil {
		t.Fatal(err)
	}
	if st := coord.Status(); len(st.Nodes) != 1 || len(st.Placements) != 1 || st.Placements[0].Node != "early-bird" {
		t.Fatalf("early agent not registered and placed: %+v", st)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("agent: %v", err)
	}
}

// TestAgentDialRetryBounded proves the retry budget is a budget: an
// agent pointed at an address nothing will ever listen on must give up
// with an error after DialAttempts attempts.
func TestAgentDialRetryBounded(t *testing.T) {
	a := river.NewAgent("doomed", "127.0.0.1:1", pipeline.NewRegistry())
	a.ReconnectMin = time.Millisecond
	a.ReconnectMax = 2 * time.Millisecond
	a.DialAttempts = 3
	err := a.Run(context.Background())
	if err == nil {
		t.Fatal("agent with an unreachable coordinator returned nil")
	}
	if want := "giving up after 3 failed attempts"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to mention %q", err, want)
	}
}
