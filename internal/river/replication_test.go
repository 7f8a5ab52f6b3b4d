package river

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
)

// relayRegistry registers the record-preserving identity segment
// replicated groups require.
func relayRegistry() *pipeline.Registry {
	reg := pipeline.NewRegistry()
	reg.Register("relay", func() []pipeline.Operator { return []pipeline.Operator{pipeline.Relay{}} })
	return reg
}

// exactlyOnceSink indexes arriving data records by their payload value so
// the test can prove no gaps and no duplicates, and counts scope repairs.
type exactlyOnceSink struct {
	mu   sync.Mutex
	seen map[int]int
	bad  int
}

func newExactlyOnceSink() *exactlyOnceSink { return &exactlyOnceSink{seen: make(map[int]int)} }

func (s *exactlyOnceSink) Name() string { return "exactly-once" }

func (s *exactlyOnceSink) Consume(r *record.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch r.Kind {
	case record.KindData:
		if v, err := r.Float64s(); err == nil && len(v) == 1 {
			s.seen[int(v[0])]++
		}
	case record.KindBadCloseScope:
		s.bad++
	}
	return nil
}

func (s *exactlyOnceSink) received() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

func (s *exactlyOnceSink) audit(n int) (missing, duplicated, repairs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		switch c := s.seen[i]; {
		case c == 0:
			missing++
		case c > 1:
			duplicated++
		}
	}
	return missing, duplicated, s.bad
}

// TestReplicatedSegmentFailover is the acceptance scenario for the
// replication subsystem: a 3-replica relay segment under sustained
// batched load, one replica node killed mid-stream. The downstream sink
// must receive every record exactly once — no gaps, no duplicates, no
// scope repair — and the coordinator must converge back to 3 replicas on
// distinct live nodes by re-placing the lost one and splicing its leg
// into the splitter.
func TestReplicatedSegmentFailover(t *testing.T) {
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
		// Node death in this test is a dropped control connection
		// (immediate); a generous timeout keeps loaded CI machines from
		// faking additional deaths.
		HeartbeatTimeout: 2 * time.Second,
		MinNodes:         4,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	type liveAgent struct {
		cancel context.CancelFunc
		done   chan error
	}
	agents := map[string]*liveAgent{}
	for _, name := range []string{"node-a", "node-b", "node-c", "node-d"} {
		a := NewAgent(name, coord.Addr(), relayRegistry())
		a.ListenHost = agentListenHost(t)
		a.Logf = t.Logf
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

	// Replicas must start on three distinct nodes.
	replicaNodes := func() map[string]string {
		out := map[string]string{}
		for _, p := range coord.Status().Placements {
			if p.Role == RoleReplica && p.Placed {
				out[p.Seg] = p.Node
			}
		}
		return out
	}
	initial := replicaNodes()
	if len(initial) != 3 {
		t.Fatalf("replicas placed: %v", initial)
	}
	distinct := map[string]bool{}
	for _, n := range initial {
		distinct[n] = true
	}
	if len(distinct) != 3 {
		t.Fatalf("replicas co-located: %v", initial)
	}

	// Sustained batched load through the splitter entry.
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

	waitFor(t, 10*time.Second, "records flowing pre-kill", func() bool {
		return sink.received() >= 300
	})

	// Kill a node hosting only a replica (not the splitter/merger), so
	// the death exercises the leg-drop path alone.
	endpointNodes := map[string]bool{}
	for _, p := range coord.Status().Placements {
		if p.Role == RoleSplit || p.Role == RoleMerge {
			endpointNodes[p.Node] = true
		}
	}
	var victim string
	for _, n := range replicaNodes() {
		if !endpointNodes[n] {
			victim = n
			break
		}
	}
	if victim == "" {
		t.Fatalf("no node hosts only a replica: placements %+v", coord.Status().Placements)
	}
	killedAt := time.Now()
	agents[victim].cancel()
	<-agents[victim].done
	delete(agents, victim)

	// The coordinator must converge back to 3 replicas on distinct live
	// nodes with all three legs spliced into the splitter.
	waitFor(t, 10*time.Second, "re-converged to 3 replicas", func() bool {
		rn := replicaNodes()
		if len(rn) != 3 {
			return false
		}
		ds := map[string]bool{}
		for _, n := range rn {
			if n == victim {
				return false
			}
			ds[n] = true
		}
		if len(ds) != 3 {
			return false
		}
		for _, ns := range coord.Status().Nodes {
			for _, s := range ns.Segments {
				if s.Role == RoleSplit && s.Legs == 3 {
					return true
				}
			}
		}
		return false
	})
	t.Logf("re-converged %v after kill", time.Since(killedAt))

	// Keep the load flowing through the healed group, then stop cleanly.
	post := sink.received()
	waitFor(t, 10*time.Second, "records flowing post-kill", func() bool {
		return sink.received() >= post+300
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

	// The acceptance criteria: exactly once, zero repairs.
	missing, duplicated, repairs := sink.audit(total)
	t.Logf("sent=%d missing=%d duplicated=%d repairs=%d", total, missing, duplicated, repairs)
	if missing != 0 {
		t.Errorf("%d of %d records lost across the replica death", missing, total)
	}
	if duplicated != 0 {
		t.Errorf("%d of %d records duplicated downstream of the merger", duplicated, total)
	}
	if repairs != 0 {
		t.Errorf("%d scope repairs reached the sink; a replica death must be invisible downstream", repairs)
	}

	// Merger telemetry must show the dedup did real work.
	var sawMerge bool
	for _, ns := range coord.Status().Nodes {
		for _, s := range ns.Segments {
			if s.Role == RoleMerge {
				sawMerge = true
				if s.Dups == 0 {
					t.Error("merger reported zero duplicates under 3-way replication")
				}
			}
		}
	}
	if !sawMerge {
		t.Error("no merger telemetry in heartbeats")
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
