package ops

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/synth"
)

// TestDistributedAcousticPipeline runs the paper's deployment shape over
// real TCP: a station process feeds an analysis host (extraction +
// spectral segments) which feeds a collector host. Asserts scope
// validity, pattern geometry and ground-truth propagation end to end.
func TestDistributedAcousticPipeline(t *testing.T) {
	// Collector host.
	colIn, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	colIn.MaxConns = 1
	colIn.IdleTimeout = 10 * time.Second
	col := NewEnsembleCollector()
	tracker := record.NewTracker()
	validate := pipeline.SinkFunc{SinkName: "validate+collect", Fn: func(r *record.Record) error {
		if err := tracker.Observe(r); err != nil {
			t.Errorf("scope violation at collector: %v", err)
		}
		return col.Consume(r)
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := pipeline.New().SetSource(colIn).SetSink(validate)
		if err := p.Run(context.Background()); err != nil {
			t.Errorf("collector: %v", err)
		}
	}()

	// Analysis host: extraction + spectral as one hosted segment.
	reg := pipeline.NewRegistry()
	reg.Register("analysis", func() []pipeline.Operator {
		extractOps, _, err := ExtractionOps(DefaultExtractConfig())
		if err != nil {
			panic(err)
		}
		return append(extractOps, SpectralOps(10)...)
	})
	node := pipeline.NewNode("analysis-host", reg)
	addr, err := node.Host("analysis", "analysis", "127.0.0.1:0", colIn.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// Station: one labelled clip over TCP.
	rng := rand.New(rand.NewSource(42))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{
		Seconds: 12,
		Events:  2,
		Species: []string{"NOCA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := pipeline.NewStreamOut(addr)
	src := clipSource{Clip{
		ID:         "integration",
		Station:    "kbs-test",
		SampleRate: clip.SampleRate,
		Samples:    clip.Samples,
		Species:    "NOCA",
	}}
	up := pipeline.New().SetSource(src).SetSink(out)
	if err := up.Run(context.Background()); err != nil {
		t.Fatalf("station: %v", err)
	}
	out.Close()
	// Let the analysis host drain, then stop it (closing its downstream
	// connection, which ends the collector).
	time.Sleep(300 * time.Millisecond)
	if err := node.StopAll(); err != nil {
		t.Errorf("analysis host: %v", err)
	}
	wg.Wait()

	ens := col.Ensembles()
	if len(ens) == 0 {
		t.Fatal("no ensembles crossed the network")
	}
	for i, e := range ens {
		if e.Species != "NOCA" {
			t.Errorf("ensemble %d species = %q", i, e.Species)
		}
		for _, p := range e.Patterns {
			if len(p) != 105 {
				t.Fatalf("pattern dim = %d, want 105", len(p))
			}
		}
	}
	if tracker.Depth() != 0 {
		t.Errorf("collector ended with %d scopes open", tracker.Depth())
	}
}

// TestPipelineSurvivesMidStreamSegmentMove exercises the coordinator move
// with the real acoustic operators while clips are flowing.
func TestPipelineSurvivesMidStreamSegmentMove(t *testing.T) {
	colIn, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	colIn.MaxConns = 2
	colIn.IdleTimeout = 10 * time.Second
	col := NewEnsembleCollector()
	tracker := record.NewTracker()
	var mu sync.Mutex
	validate := pipeline.SinkFunc{SinkName: "v", Fn: func(r *record.Record) error {
		mu.Lock()
		defer mu.Unlock()
		if err := tracker.Observe(r); err != nil {
			t.Errorf("scope violation: %v", err)
		}
		return col.Consume(r)
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := pipeline.New().SetSource(colIn).SetSink(validate)
		if err := p.Run(context.Background()); err != nil {
			t.Errorf("collector: %v", err)
		}
	}()

	reg := pipeline.NewRegistry()
	reg.Register("extract", func() []pipeline.Operator {
		extractOps, _, err := ExtractionOps(DefaultExtractConfig())
		if err != nil {
			panic(err)
		}
		return extractOps
	})
	nodeA := pipeline.NewNode("a", reg)
	nodeB := pipeline.NewNode("b", reg)
	defer nodeB.StopAll()
	addrA, err := nodeA.Host("extract", "extract", "127.0.0.1:0", colIn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	upstream := pipeline.NewStreamOut(addrA)
	defer upstream.Close()

	station := synth.NewStation("kbs", 5, synth.ClipConfig{Seconds: 6, Events: 1})
	send := func() {
		clip, id, err := station.NextClip()
		if err != nil {
			t.Fatal(err)
		}
		c := Clip{ID: id, SampleRate: clip.SampleRate, Samples: clip.Samples}
		feed := pipeline.EmitterFunc(func(r *record.Record) error { return upstream.Consume(r) })
		if err := EmitClip(feed, &c); err != nil {
			t.Fatal(err)
		}
	}
	send()
	time.Sleep(150 * time.Millisecond)

	// Move: host on node B, redirect the upstream to it, stop node A's
	// instance (which drains what it had in flight).
	newAddr, err := nodeB.Host("extract", "extract", ":0", colIn.Addr())
	if err != nil {
		t.Fatalf("move: %v", err)
	}
	upstream.Redirect(newAddr)
	if err := nodeA.Stop("extract"); err != nil {
		t.Fatalf("move: stopping old instance: %v", err)
	}
	send()
	time.Sleep(150 * time.Millisecond)
	if err := nodeB.StopAll(); err != nil {
		t.Errorf("node b: %v", err)
	}
	upstream.Close()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if tracker.Depth() != 0 {
		t.Errorf("stream ended with %d scopes open after move", tracker.Depth())
	}
	// Both clips should have produced at least one ensemble somewhere;
	// at minimum the stream stayed structurally sound and delivered data.
	if len(col.Ensembles()) == 0 {
		t.Error("no ensembles delivered across the move")
	}
}
