package river

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
)

// restartConfig is the coordinator configuration both incarnations in
// TestCoordinatorRestartAdoptsDataPlane share.
func restartConfig(t *testing.T, listen, sinkAddr, stateDir string) Config {
	return Config{
		ListenAddr: listen,
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{
				{Name: "rep", Type: "relay", Replicas: 3},
				{Name: "tail", Type: "relay"},
			},
			SinkAddr: sinkAddr,
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		// Node death in this test is a dropped control connection
		// (immediate); a generous timeout keeps loaded CI machines from
		// faking additional deaths.
		HeartbeatTimeout: 2 * time.Second,
		MinNodes:         4,
		StateDir:         stateDir,
		RestartGrace:     5 * time.Second,
		Logf:             t.Logf,
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

	stateDir := t.TempDir()
	coord, err := NewCoordinator(restartConfig(t, "127.0.0.1:0", terminal.Addr(), stateDir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	coordAddr := coord.Addr()
	if got := coord.Epoch(); got != 1 {
		t.Fatalf("fresh coordinator epoch = %d, want 1", got)
	}

	type liveAgent struct {
		cancel context.CancelFunc
		done   chan error
	}
	agents := map[string]*liveAgent{}
	for _, name := range []string{"node-a", "node-b", "node-c", "node-d"} {
		a := NewAgent(name, coordAddr, relayRegistry())
		a.ListenHost = agentListenHost(t)
		a.Logf = t.Logf
		// Tight reconnect bounds so re-registration lands well inside the
		// grace window.
		a.ReconnectMin = 25 * time.Millisecond
		a.ReconnectMax = 250 * time.Millisecond
		a.DialAttempts = 500
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- a.Run(ctx) }()
		agents[name] = &liveAgent{cancel: cancel, done: done}
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
	entry := coord.EntryAddr()

	// placementMap snapshots unit -> node@addr for the adoption check.
	placementMap := func(c *Coordinator) map[string]string {
		out := map[string]string{}
		for _, p := range c.Status().Placements {
			if p.Placed {
				out[p.Seg] = p.Node + "@" + p.Addr
			}
		}
		return out
	}
	before := placementMap(coord)
	if len(before) != 6 { // rep/merge, rep/r1-3, rep/split, tail
		t.Fatalf("expected 6 placed units, got %v", before)
	}

	// Sustained batched load through the splitter entry.
	out := pipeline.NewStreamOutBatched(entry, record.DefaultBatchConfig())
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
	waitFor(t, 10*time.Second, "records flowing pre-restart", func() bool {
		return sink.received() >= 300
	})

	// Kill the coordinator. The agents' control sessions drop, but the
	// data plane must not notice: records keep arriving during the
	// outage — the proof that segment lifetime detached from the control
	// sessions.
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	preOutage := sink.received()
	waitFor(t, 10*time.Second, "records flowing with no coordinator", func() bool {
		return sink.received() >= preOutage+300
	})

	// Restart over the same state directory and address. The listener
	// port was just released; give the bind a brief retry budget.
	var coord2 *Coordinator
	deadline := time.Now().Add(5 * time.Second)
	for {
		coord2, err = NewCoordinator(restartConfig(t, coordAddr, terminal.Addr(), stateDir))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restart: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer coord2.Close()
	if got := coord2.Epoch(); got != 2 {
		t.Fatalf("restarted coordinator epoch = %d, want 2", got)
	}
	// The reloaded state already places everything, so WaitPlaced
	// returns immediately; what matters is the agents re-registering and
	// being adopted.
	waitFor(t, 10*time.Second, "all agents re-registered", func() bool {
		return len(coord2.Status().Nodes) == 4
	})
	after := placementMap(coord2)
	if len(after) != len(before) {
		t.Fatalf("placements after restart: %v, want %v", after, before)
	}
	for unit, where := range before {
		if after[unit] != where {
			t.Errorf("unit %s moved across the restart: %s -> %s (re-placed, not adopted)", unit, where, after[unit])
		}
	}
	if got := coord2.EntryAddr(); got != entry {
		t.Errorf("entry address changed across restart: %q -> %q", entry, got)
	}

	// Load must still be flowing through the adopted pipeline.
	postRestart := sink.received()
	waitFor(t, 10*time.Second, "records flowing post-restart", func() bool {
		return sink.received() >= postRestart+300
	})

	// A node kill after the restart must still fail over: pick a node
	// hosting only a replica and kill it; the new coordinator must
	// converge back to 3 replicas on distinct live nodes.
	st := coord2.Status()
	endpointNodes := map[string]bool{}
	for _, p := range st.Placements {
		if p.Role == RoleSplit || p.Role == RoleMerge || p.Seg == "tail" {
			endpointNodes[p.Node] = true
		}
	}
	var victim string
	for _, p := range st.Placements {
		if p.Role == RoleReplica && !endpointNodes[p.Node] {
			victim = p.Node
			break
		}
	}
	if victim == "" {
		t.Fatalf("no node hosts only a replica: %+v", st.Placements)
	}
	agents[victim].cancel()
	<-agents[victim].done
	delete(agents, victim)
	waitFor(t, 10*time.Second, "re-converged to 3 replicas after post-restart kill", func() bool {
		nodes := map[string]bool{}
		replicas := 0
		for _, p := range coord2.Status().Placements {
			if p.Role == RoleReplica {
				if !p.Placed || p.Node == victim {
					return false
				}
				replicas++
				nodes[p.Node] = true
			}
		}
		if replicas != 3 || len(nodes) != 3 {
			return false
		}
		for _, ns := range coord2.Status().Nodes {
			for _, s := range ns.Segments {
				if s.Role == RoleSplit && s.Legs == 3 {
					return true
				}
			}
		}
		return false
	})

	// Drain the load and audit: every record exactly once, zero scope
	// repairs — across a coordinator bounce AND a post-restart failover.
	postKill := sink.received()
	waitFor(t, 10*time.Second, "records flowing after failover", func() bool {
		return sink.received() >= postKill+300
	})
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
		t.Errorf("%d of %d records lost across the coordinator restart", missing, total)
	}
	if duplicated != 0 {
		t.Errorf("%d of %d records duplicated", duplicated, total)
	}
	if repairs != 0 {
		t.Errorf("%d scope repairs reached the sink; a coordinator bounce must be invisible to the data plane", repairs)
	}

	// Teardown.
	_ = out.Close()
	for _, la := range agents {
		la.cancel()
		<-la.done
	}
	agents = map[string]*liveAgent{}
	_ = terminal.Close()
	termWG.Wait()
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

	a := NewAgent("early-bird", addr, relayRegistry())
	a.Logf = t.Logf
	a.ReconnectMin = 10 * time.Millisecond
	a.ReconnectMax = 100 * time.Millisecond
	a.DialAttempts = 500
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx) }()

	time.Sleep(150 * time.Millisecond) // let several dials fail
	coord, err := NewCoordinator(Config{
		ListenAddr: addr,
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "seg", Type: "relay"}},
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
	waitFor(t, 5*time.Second, "early agent registered and placed", func() bool {
		st := coord.Status()
		return len(st.Nodes) == 1 && len(st.Placements) == 1 && st.Placements[0].Placed
	})
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("agent: %v", err)
	}
}

// TestAgentDialRetryBounded proves the retry budget is a budget: an
// agent pointed at an address nothing will ever listen on must give up
// with an error after DialAttempts attempts.
func TestAgentDialRetryBounded(t *testing.T) {
	a := NewAgent("doomed", "127.0.0.1:1", relayRegistry())
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
