package river

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
)

// TestPlannedDrainZeroRepairs is the planned-drain acceptance: an
// operator-initiated move of a mid-chain segment while scoped clips are
// streaming must repair zero scopes — unlike a failover, which cuts the
// stream mid-scope — and lose no records. The splice happens at a
// top-level scope boundary; the old instance's stream ends cleanly.
func TestPlannedDrainZeroRepairs(t *testing.T) {
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
			Segments: []SegmentSpec{{Name: "first", Type: "relay"}, {Name: "second", Type: "relay"}},
			SinkAddr: terminal.Addr(),
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		DrainSettle:       150 * time.Millisecond,
		Placer:            &Spread{},
		MinNodes:          3,
		Logf:              t.Logf,
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
	for _, name := range []string{"node-a", "node-b", "node-c"} {
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

	// Stream clip scopes continuously: open, a few data records, close.
	out := pipeline.NewStreamOutBatched(coord.EntryAddr(), record.DefaultBatchConfig())
	defer out.Close()
	stopLoad := make(chan struct{})
	loadDone := make(chan error, 1)
	var sent int
	go func() {
		i := 0
		for {
			if err := out.Consume(record.NewOpenScope(record.ScopeClip, 0)); err != nil {
				loadDone <- err
				return
			}
			for k := 0; k < 10; k++ {
				r := record.NewData(record.SubtypeAudio)
				r.SetFloat64s([]float64{float64(i)})
				i++
				if err := out.Consume(r); err != nil {
					loadDone <- err
					return
				}
				time.Sleep(500 * time.Microsecond)
			}
			if err := out.Consume(record.NewCloseScope(record.ScopeClip, 0)); err != nil {
				loadDone <- err
				return
			}
			select {
			case <-stopLoad:
				sent = i
				loadDone <- nil
				return
			default:
			}
		}
	}()
	waitFor(t, 10*time.Second, "records flowing pre-drain", func() bool {
		return sink.received() >= 100
	})

	var oldNode string
	for _, p := range coord.Status().Placements {
		if p.Seg == "second" {
			oldNode = p.Node
		}
	}

	// The operator-initiated move, mid-stream.
	if err := coord.Drain("second"); err != nil {
		t.Fatalf("drain: %v", err)
	}
	var newNode string
	for _, p := range coord.Status().Placements {
		if p.Seg == "second" {
			if !p.Placed {
				t.Fatalf("second unplaced after drain: %+v", p)
			}
			newNode = p.Node
		}
	}
	if newNode == oldNode {
		t.Fatalf("drain left second on %s", oldNode)
	}

	// Traffic keeps flowing through the moved instance.
	post := sink.received()
	waitFor(t, 10*time.Second, "records flowing post-drain", func() bool {
		return sink.received() >= post+100
	})
	close(stopLoad)
	if err := <-loadDone; err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "all records at the sink", func() bool {
		return sink.received() >= sent
	})

	missing, duplicated, repairs := sink.audit(sent)
	t.Logf("sent=%d missing=%d duplicated=%d repairs=%d", sent, missing, duplicated, repairs)
	if missing != 0 {
		t.Errorf("%d of %d records lost across the drain", missing, sent)
	}
	if duplicated != 0 {
		t.Errorf("%d of %d records duplicated across the drain", duplicated, sent)
	}
	if repairs != 0 {
		t.Errorf("%d scope repairs reached the sink; a planned drain must repair zero scopes", repairs)
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

// TestDrainRejectsBadTargets covers the drain guard rails: unknown units,
// unplaced units and replication endpoints are refused.
func TestDrainRejectsBadTargets(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "seg", Type: "relay", Replicas: 2}},
			SinkAddr: "127.0.0.1:9",
		}},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Drain("nope"); err == nil {
		t.Error("drain of an unknown unit accepted")
	}
	if err := coord.Drain("seg/r1"); err == nil {
		t.Error("drain of an unplaced unit accepted")
	}
	for _, unit := range []string{"seg/split", "seg/merge"} {
		if err := coord.Drain(unit); err == nil {
			t.Errorf("drain of endpoint %s accepted", unit)
		}
	}
}
