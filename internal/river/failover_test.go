package river

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/ops"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/synth"
)

// extractRegistry registers the paper's ensemble-extraction segment.
func extractRegistry(t *testing.T) *pipeline.Registry {
	t.Helper()
	reg := pipeline.NewRegistry()
	reg.Register("extract", func() []pipeline.Operator {
		opsList, _, err := ops.ExtractionOps(ops.DefaultExtractConfig())
		if err != nil {
			t.Errorf("build extract ops: %v", err)
			return nil
		}
		return opsList
	})
	return reg
}

// terminalSink validates scope structure at the pipeline's end and counts
// complete ensembles and BadCloseScope repairs.
type terminalSink struct {
	mu         sync.Mutex
	tracker    *record.Tracker
	ensembles  int
	badCloses  int
	violations int
}

func newTerminalSink() *terminalSink { return &terminalSink{tracker: record.NewTracker()} }

func (s *terminalSink) Name() string { return "terminal" }

func (s *terminalSink) Consume(r *record.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.tracker.Observe(r); err != nil {
		s.violations++
		return nil
	}
	switch {
	case r.Kind == record.KindCloseScope && r.ScopeType == record.ScopeEnsemble:
		s.ensembles++
	case r.Kind == record.KindBadCloseScope:
		s.badCloses++
	}
	return nil
}

func (s *terminalSink) snapshot() (ensembles, badCloses, violations, depth int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ensembles, s.badCloses, s.violations, s.tracker.Depth()
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

	// Terminal: validating sink fed by a streamin the last segment dials.
	terminal, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := newTerminalSink()
	var termWG sync.WaitGroup
	termWG.Add(1)
	go func() {
		defer termWG.Done()
		if err := pipeline.New().SetSource(terminal).SetSink(sink).Run(context.Background()); err != nil {
			t.Errorf("terminal pipeline: %v", err)
		}
	}()

	// Control plane: coordinator and two agents able to host "extract".
	const heartbeatTimeout = time.Second
	entryCh := make(chan string, 16)
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "extract", Type: "extract"}},
			SinkAddr: terminal.Addr(),
		}},
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  heartbeatTimeout,
		OnEntryChange:     func(a string) { entryCh <- a },
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	reg := extractRegistry(t)
	type liveAgent struct {
		cancel context.CancelFunc
		done   chan error
	}
	agents := make(map[string]*liveAgent)
	for _, name := range []string{"node-a", "node-b"} {
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

	// Station source: a streamout that follows the entry address.
	var entry string
	select {
	case entry = <-entryCh:
	case <-time.After(5 * time.Second):
		t.Fatal("no entry address after placement")
	}
	out := pipeline.NewStreamOut(entry)
	defer out.Close()
	redirectQuit := make(chan struct{})
	redirectDone := make(chan struct{})
	defer func() { close(redirectQuit); <-redirectDone }()
	go func() {
		defer close(redirectDone)
		for {
			select {
			case a := <-entryCh:
				out.Redirect(a)
			case <-redirectQuit:
				return
			}
		}
	}()

	station := synth.NewStation("kbs-01", 11, synth.ClipConfig{Seconds: 8, Events: 2})
	feed := pipeline.EmitterFunc(func(r *record.Record) error { return out.Consume(r) })
	sendClip := func() {
		t.Helper()
		clip, id, err := station.NextClip()
		if err != nil {
			t.Fatal(err)
		}
		c := ops.Clip{ID: id, Station: station.Name, SampleRate: clip.SampleRate, Samples: clip.Samples}
		if err := ops.EmitClip(feed, &c); err != nil {
			t.Fatalf("emit clip %s: %v", id, err)
		}
	}

	// Phase 1: a full clip flows through the placed segment; the sink
	// must extract at least one complete ensemble.
	sendClip()
	waitFor(t, 30*time.Second, "pre-failover ensembles", func() bool {
		e, _, _, _ := sink.snapshot()
		return e >= 1
	})

	// Phase 2: open a clip scope and stream part of its audio, then kill
	// the hosting node mid-clip.
	open := record.NewOpenScope(record.ScopeClip, 0)
	open.SetContext(map[string]string{
		record.CtxSampleRate: "24576",
		record.CtxClipID:     "doomed",
	})
	if err := out.Consume(open); err != nil {
		t.Fatal(err)
	}
	doomed := record.NewData(record.SubtypeAudio)
	doomed.SetFloat64s(make([]float64, ops.RecordSamples))
	for i := 0; i < 8; i++ {
		if err := out.Consume(doomed); err != nil {
			t.Fatal(err)
		}
	}
	// Let the partial clip reach the terminal through the victim before
	// the kill, so scopes are open across both hops.
	time.Sleep(200 * time.Millisecond)

	st := coord.Status()
	if len(st.Placements) != 1 || !st.Placements[0].Placed {
		t.Fatalf("segment not placed before kill: %+v", st.Placements)
	}
	victim := st.Placements[0].Node
	killedAt := time.Now()
	agents[victim].cancel()
	<-agents[victim].done
	delete(agents, victim)

	// The coordinator must re-place the segment on the survivor within
	// the heartbeat timeout.
	waitFor(t, heartbeatTimeout, "re-placement on the surviving node", func() bool {
		p := coord.Status().Placements[0]
		return p.Placed && p.Node != victim
	})
	t.Logf("re-placed %v after kill", time.Since(killedAt))

	// Phase 3: finish the doomed clip (its stray records are discarded at
	// the new instance's scope tracker) and send one more full clip; the
	// sink must see the scope repair and fresh complete ensembles.
	ensemblesBefore, _, _, _ := sink.snapshot()
	if err := out.Consume(doomed); err != nil {
		t.Fatal(err)
	}
	if err := out.Consume(record.NewCloseScope(record.ScopeClip, 0)); err != nil {
		t.Fatal(err)
	}
	sendClip()
	waitFor(t, 30*time.Second, "scope repair and post-failover ensembles", func() bool {
		e, bad, _, _ := sink.snapshot()
		return bad >= 1 && e > ensemblesBefore
	})

	// Orderly teardown: stop the survivor (closing its terminal
	// connection at scope depth 0), then check stream hygiene.
	_ = out.Close()
	for _, la := range agents {
		la.cancel()
		<-la.done
	}
	agents = map[string]*liveAgent{}
	waitFor(t, 5*time.Second, "terminal scopes drained", func() bool {
		_, _, _, depth := sink.snapshot()
		return depth == 0
	})
	_ = terminal.Close()
	termWG.Wait()

	ensembles, badCloses, violations, depth := sink.snapshot()
	t.Logf("ensembles=%d badCloses=%d violations=%d depth=%d", ensembles, badCloses, violations, depth)
	if violations != 0 {
		t.Errorf("sink observed %d scope violations; repairs must keep the stream structurally valid", violations)
	}
	if depth != 0 {
		t.Errorf("stream ended with %d scopes open", depth)
	}
	if badCloses < 1 {
		t.Errorf("no BadCloseScope repair observed after killing %s mid-clip", victim)
	}
	if ensembles <= ensemblesBefore {
		t.Errorf("no complete ensemble after failover (before=%d after=%d)", ensemblesBefore, ensembles)
	}
}
