package replica

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
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

// stampEmitter records the ingress stamp of every record it is handed.
type stampEmitter struct {
	mu     sync.Mutex
	stamps []int64
}

func (e *stampEmitter) Emit(r *record.Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stamps = append(e.stamps, r.IngressNanos)
	return nil
}

func (e *stampEmitter) snapshot() []int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int64(nil), e.stamps...)
}

// TestMergerStampsOncePerLegBatch: every record of one decoded leg batch
// carries the same ingress stamp, a later batch a later one, and the
// run-end hook fires once per batch.
func TestMergerStampsOncePerLegBatch(t *testing.T) {
	m, err := NewMerger(MergerConfig{Group: "g", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	var ends atomic.Int64
	m.SetRunEnd(func(bool) error { ends.Add(1); return nil })
	out := &stampEmitter{}
	done := make(chan error, 1)
	go func() { done <- m.Run(out) }()
	defer func() { m.Close(); <-done }()

	leg := pipeline.NewStreamOutBatched(m.Addr(), hourPolicy())
	defer leg.Close()
	stream := record.ReplicaStreamID("g")
	const batch = 10
	for b := uint64(0); b < 2; b++ {
		for n := b * batch; n < (b+1)*batch; n++ {
			if err := leg.Consume(taggedData(t, stream, 1, n, float64(n))); err != nil {
				t.Fatal(err)
			}
		}
		if err := leg.Flush(); err != nil {
			t.Fatal(err)
		}
		want := int((b + 1) * batch)
		waitCond(t, 5*time.Second, "the batch past the merger", func() bool { return len(out.snapshot()) == want })
	}
	stamps := out.snapshot()
	for b := 0; b < 2; b++ {
		run := stamps[b*batch : (b+1)*batch]
		if run[0] == 0 {
			t.Fatalf("batch %d unstamped", b)
		}
		for i, s := range run {
			if s != run[0] {
				t.Errorf("batch %d record %d stamped %d, its batch's first %d", b, i, s, run[0])
			}
		}
	}
	if stamps[batch] <= stamps[0] {
		t.Errorf("second batch stamped %d, not after the first's %d", stamps[batch], stamps[0])
	}
	waitCond(t, 5*time.Second, "a run end per batch", func() bool { return ends.Load() == 2 })
}

// TestRunEndTracesMergerUnit: a traced hosted merger fed the same stream
// by three legs at once folds exactly one unit-latency observation per
// record it emits, though the legs' goroutines take turns closing the
// tracer's spans.
func TestRunEndTracesMergerUnit(t *testing.T) {
	in, col := startStreamIn(t)
	m, err := NewMerger(MergerConfig{Group: "g", ListenAddr: "127.0.0.1:0", Pooled: true})
	if err != nil {
		t.Fatal(err)
	}
	node := pipeline.NewNode("host-a", pipeline.NewRegistry())
	node.Obs = obs.NewRegistry()
	defer node.StopAll()
	if err := node.HostUnit("merge", "merge", m, pipeline.NewSegment("merge"), pipeline.NewStreamOutBatched(in.Addr(), hourPolicy())); err != nil {
		t.Fatal(err)
	}
	unit := node.Obs.Histogram("dynriver_unit_latency_seconds", obs.LatencyBuckets, "unit", "merge")

	const n, batch = 300, 25
	stream := record.ReplicaStreamID("g")
	var wg sync.WaitGroup
	for l := 0; l < 3; l++ {
		leg := pipeline.NewStreamOutBatched(m.Addr(), hourPolicy())
		defer leg.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(0); seq < n; seq++ {
				if err := leg.Consume(taggedData(t, stream, 1, seq, float64(seq))); err != nil {
					t.Error(err)
					return
				}
				if (seq+1)%batch == 0 {
					if err := leg.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	waitCond(t, 5*time.Second, "every record past the merger", func() bool { return col.len() == n })
	waitCond(t, 5*time.Second, "one observation per record", func() bool { return unit.Count() == n })
	waitCond(t, 5*time.Second, "every leg's copy ingested", func() bool { return m.Dups() == 2*n })
	if c := unit.Count(); c != n {
		t.Errorf("%d latency observations for %d records", c, n)
	}
}
