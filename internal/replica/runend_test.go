package replica

import (
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
)

// hourPolicy is the default batching policy with a delay timer that never
// fires within a test: anything delivered was flushed by a run end, a
// count or a boundary.
func hourPolicy() record.BatchConfig {
	cfg := record.DefaultBatchConfig()
	cfg.MaxDelay = time.Hour
	return cfg
}

// startStreamIn runs a plain streamin into a collecting emitter until the
// test ends.
func startStreamIn(t *testing.T) (*pipeline.StreamIn, *collectEmitter) {
	t.Helper()
	in, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	col := &collectEmitter{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = in.Run(col)
	}()
	t.Cleanup(func() { in.Close(); <-done })
	return in, col
}

// TestRunEndFlushLegSetLeg: ten records through a splitter leg whose
// streamout would hold them for an hour arrive, because the leg writer
// flushes whenever it empties its queue.
func TestRunEndFlushLegSetLeg(t *testing.T) {
	in, col := startStreamIn(t)
	sp := NewSplitter(SplitterConfig{Group: "g", Epoch: 1, Legs: []string{in.Addr()}, Flush: hourPolicy()})
	defer sp.Close()
	for i := 0; i < 10; i++ {
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s([]float64{float64(i)})
		if err := sp.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, 5*time.Second, "10 records past the leg", func() bool { return col.len() == 10 })
}

// TestRunEndFlushMergerUnit: a 10-record leg batch crosses a hosted merger
// unit whose streamout would hold it for an hour; the merger's run-end
// hook delivers it once the leg's batch is exhausted.
func TestRunEndFlushMergerUnit(t *testing.T) {
	in, col := startStreamIn(t)
	m, err := NewMerger(MergerConfig{Group: "g", ListenAddr: "127.0.0.1:0", Pooled: true})
	if err != nil {
		t.Fatal(err)
	}
	out := pipeline.NewStreamOutBatched(in.Addr(), hourPolicy())
	node := pipeline.NewNode("host-a", pipeline.NewRegistry())
	defer node.StopAll()
	if err := node.HostUnit("merge", "merge", m, pipeline.NewSegment("merge"), out); err != nil {
		t.Fatal(err)
	}
	leg := pipeline.NewStreamOutBatched(m.Addr(), hourPolicy())
	defer leg.Close()
	stream := record.ReplicaStreamID("g")
	for n := uint64(0); n < 10; n++ {
		if err := leg.Consume(taggedData(t, stream, 1, n, float64(n))); err != nil {
			t.Fatal(err)
		}
	}
	if err := leg.Flush(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, "10 records past the merger", func() bool { return col.len() == 10 })
	if b := out.BatchesOut(); b != 1 {
		t.Errorf("merger unit flushed %d batches, want 1", b)
	}
}
