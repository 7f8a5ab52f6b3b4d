package river

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/record"
)

// gatedRelay is a record-preserving relay whose per-record cost can be
// turned up and down at runtime — the lever that makes a shard group
// saturate on demand.
type gatedRelay struct{ delay *atomic.Int64 }

func (gatedRelay) Name() string { return "gated-relay" }

func (g gatedRelay) Process(r *record.Record, out pipeline.Emitter) error {
	if d := g.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return out.Emit(r)
}

// TestShardedSegmentAutoscaleAndFailover is the acceptance scenario for
// the sharding tentpole: a sharded relay segment boots at K=2, sustained
// saturation (each leg made artificially expensive) scales it out to 4
// with zero repairs, load dropping scales it back in to 2 with zero lost
// records, and killing a node that hosts only a shard leg converges back
// to K legs on distinct live nodes — all while the downstream sink sees
// every record exactly once.
func TestShardedSegmentAutoscaleAndFailover(t *testing.T) {
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
			Segments: []SegmentSpec{{Name: "work", Type: "gated", Shards: 2}},
			SinkAddr: terminal.Addr(),
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		MinNodes:          5,
		DrainSettle:       150 * time.Millisecond,
		Autoscale: AutoscaleConfig{
			Enabled: true, Interval: 40 * time.Millisecond,
			LowWater: 0.10, HighWater: 0.50,
			MinShards: 2, MaxShards: 4, Step: 2,
			Cooldown: 700 * time.Millisecond, SustainTicks: 3,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var delay atomic.Int64
	reg := pipeline.NewRegistry()
	reg.Register("gated", func() []pipeline.Operator {
		return []pipeline.Operator{gatedRelay{delay: &delay}}
	})

	type liveAgent struct {
		cancel context.CancelFunc
		done   chan error
	}
	agents := map[string]*liveAgent{}
	for _, name := range []string{"node-a", "node-b", "node-c", "node-d", "node-e"} {
		a := NewAgent(name, coord.Addr(), reg)
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

	// shardNodes maps placed shard legs to their hosts.
	shardNodes := func() map[string]string {
		out := map[string]string{}
		for _, p := range coord.Status().Placements {
			if p.Role == RoleShard && p.Placed {
				out[p.Seg] = p.Node
			}
		}
		return out
	}
	// partitionLegs reports the live partitioner's spliced leg count from
	// heartbeat telemetry.
	partitionLegs := func() int {
		for _, ns := range coord.Status().Nodes {
			for _, s := range ns.Segments {
				if s.Role == RolePartition {
					return s.Legs
				}
			}
		}
		return -1
	}
	distinctNodes := func(m map[string]string) int {
		d := map[string]bool{}
		for _, n := range m {
			d[n] = true
		}
		return len(d)
	}

	initial := shardNodes()
	if len(initial) != 2 || distinctNodes(initial) != 2 {
		t.Fatalf("boot shard legs not spread: %v", initial)
	}

	// Make each record expensive so the legs' emit queues back up, then
	// start sustained load through the partitioner entry.
	delay.Store(int64(3 * time.Millisecond))
	out := pipeline.NewStreamOutBatched(coord.EntryAddr(), record.DefaultBatchConfig())
	defer out.Close()
	if err := out.Consume(record.NewOpenScope(record.ScopeSession, 0)); err != nil {
		t.Fatal(err)
	}
	var sent int
	stopLoad := make(chan struct{})
	loadDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				sent = i
				loadDone <- nil
				return
			default:
			}
			r := record.NewData(record.SubtypeAudio)
			// Spread the keys so every leg carries traffic; the partitioner
			// hashes SourceID.
			r.SourceID = uint32(1 + i%13)
			r.SetFloat64s([]float64{float64(i)})
			if err := out.Consume(r); err != nil {
				sent = i
				loadDone <- err
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Sustained saturation must scale the group out to MaxShards with the
	// new legs placed, spliced and on distinct nodes.
	waitFor(t, 20*time.Second, "scale-out to 4 legs", func() bool {
		sn := shardNodes()
		return len(sn) == 4 && distinctNodes(sn) == 4 && partitionLegs() == 4
	})

	// The event trail must show the breach before the action.
	var trigSeq, outSeq uint64
	for _, e := range coord.Events().Since(0, nil) {
		if e.Type != obs.EventAutoscale {
			continue
		}
		switch e.Phase {
		case obs.AsPhaseTriggered:
			if trigSeq == 0 {
				trigSeq = e.Seq
			}
		case obs.AsPhaseScaleOut:
			if outSeq == 0 {
				outSeq = e.Seq
			}
		}
	}
	if trigSeq == 0 || outSeq == 0 || trigSeq >= outSeq {
		t.Fatalf("autoscale event trail: triggered seq %d, scale_out seq %d", trigSeq, outSeq)
	}

	// Drop the per-record cost: saturation falls below the low water and
	// the group must shrink back to MinShards, flushing the retired legs
	// (the exactly-once audit at the end proves nothing was lost here).
	delay.Store(0)
	waitFor(t, 30*time.Second, "scale-in back to 2 legs", func() bool {
		sn := shardNodes()
		return len(sn) == 2 && partitionLegs() == 2
	})
	var sawScaleIn bool
	for _, e := range coord.Events().Since(0, nil) {
		if e.Type == obs.EventAutoscale && e.Phase == obs.AsPhaseScaleIn {
			sawScaleIn = true
		}
	}
	if !sawScaleIn {
		t.Error("no scale_in event in the autoscale trail")
	}

	// Quiesce the stream before the kill: records in flight inside a
	// killed process are gone by design (shards are data-parallel, not
	// redundant), so the zero-loss claim is for the control plane's
	// convergence, not for records the dead node held.
	close(stopLoad)
	if err := <-loadDone; err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "sink caught up before the kill", func() bool {
		return sink.received() >= sent
	})

	// Kill a node hosting only a shard leg, so the death exercises the
	// leg-drop + re-place + splice path alone.
	otherNodes := map[string]bool{}
	for _, p := range coord.Status().Placements {
		if p.Role != RoleShard && p.Placed {
			otherNodes[p.Node] = true
		}
	}
	var victim string
	for _, n := range shardNodes() {
		if !otherNodes[n] {
			victim = n
			break
		}
	}
	if victim == "" {
		t.Fatalf("no node hosts only a shard leg: %+v", coord.Status().Placements)
	}
	killedAt := time.Now()
	agents[victim].cancel()
	<-agents[victim].done
	delete(agents, victim)

	waitFor(t, 10*time.Second, "re-converged to 2 legs after the kill", func() bool {
		sn := shardNodes()
		if len(sn) != 2 || distinctNodes(sn) != 2 {
			return false
		}
		for _, n := range sn {
			if n == victim {
				return false
			}
		}
		return partitionLegs() == 2
	})
	t.Logf("re-converged %v after kill", time.Since(killedAt))

	// The healed group must carry traffic again.
	const extra = 500
	for i := sent; i < sent+extra; i++ {
		r := record.NewData(record.SubtypeAudio)
		r.SourceID = uint32(1 + i%13)
		r.SetFloat64s([]float64{float64(i)})
		if err := out.Consume(r); err != nil {
			t.Fatalf("post-kill send %d: %v", i, err)
		}
	}
	total := sent + extra
	if err := out.Consume(record.NewCloseScope(record.ScopeSession, 0)); err != nil {
		t.Fatal(err)
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "all records at the sink", func() bool {
		return sink.received() >= total
	})

	// Exactly once across two resizes and a shard-leg death.
	missing, duplicated, repairs := sink.audit(total)
	t.Logf("sent=%d missing=%d duplicated=%d repairs=%d", total, missing, duplicated, repairs)
	if missing != 0 {
		t.Errorf("%d of %d records lost across the resizes", missing, total)
	}
	if duplicated != 0 {
		t.Errorf("%d of %d records duplicated", duplicated, total)
	}
	if repairs != 0 {
		t.Errorf("%d scope repairs reached the sink; resizes must be invisible downstream", repairs)
	}

	// Collector telemetry: an ordered lossless run skips nothing and
	// discards nothing as untagged.
	for _, ns := range coord.Status().Nodes {
		for _, s := range ns.Segments {
			if s.Role == RoleCollect {
				if s.Skipped != 0 {
					t.Errorf("collector skipped %d sequence slots", s.Skipped)
				}
				if s.Untagged != 0 {
					t.Errorf("collector discarded %d untagged records", s.Untagged)
				}
			}
		}
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
