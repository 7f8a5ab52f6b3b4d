package pipeline

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

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

// sendBatch writes n sequenced records to out as one batch frame.
func sendBatch(t *testing.T, out *StreamOut, from, n uint64) {
	t.Helper()
	for seq := from; seq < from+n; seq++ {
		if err := out.Consume(seqData(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestRunEndFlushHostedRelay: a 10-record upstream batch crosses a hosted
// relay unit whose streamout would hold it for an hour; the streamin's
// run-end hook delivers it as one batch as soon as the run is walked.
func TestRunEndFlushHostedRelay(t *testing.T) {
	in, col, stop := startCollector(t)
	defer stop()
	reg := NewRegistry()
	reg.Register("relay", func() []Operator { return []Operator{Relay{}} })
	node := NewNode("host-a", reg)
	node.FlushPolicy = hourPolicy()
	defer node.StopAll()
	addr, err := node.Host("relay", "relay", "127.0.0.1:0", in.Addr())
	if err != nil {
		t.Fatal(err)
	}
	up := NewStreamOutBatched(addr, hourPolicy())
	defer up.Close()
	sendBatch(t, up, 0, 10)
	waitFor(t, 5*time.Second, "10 records past the relay", func() bool { return col.count() == 10 })
	if st := node.Stats(); len(st) != 1 || st[0].BatchesOut != 1 {
		t.Errorf("relay stats %+v, want one batch out", st)
	}
}

// gateOp holds every record until open is closed.
type gateOp struct{ open chan struct{} }

func (gateOp) Name() string { return "gate" }

func (g gateOp) Process(r *record.Record, out Emitter) error {
	<-g.open
	return out.Emit(r)
}

// TestRunEndBacklogKeepsBatching: while the run queue holds runs the
// drain does not flush at run ends, so a backlog released at once leaves
// in batches that grow past one run each.
func TestRunEndBacklogKeepsBatching(t *testing.T) {
	dst, col, stop := startCollector(t)
	defer stop()
	in, err := NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.QueueSize = DefaultQueueSize
	in.Pooled = true
	gate := gateOp{open: make(chan struct{})}
	out := NewStreamOutBatched(dst.Addr(), hourPolicy())
	p := New().SetSource(in).AppendOps("gate", gate).SetSink(out)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()
	defer func() {
		cancel()
		<-done
		out.Close()
	}()

	// Upstream batches are exactly one run long, so every run ends dry.
	up := NewStreamOutBatched(in.Addr(), record.BatchConfig{MaxRecords: runCap})
	defer up.Close()
	const n = 32 * runCap
	sendBatch(t, up, 0, n)
	waitFor(t, 5*time.Second, "run queue full", func() bool {
		d, c := in.QueueDepth()
		return c == DefaultQueueSize && d >= DefaultQueueSize-runCap
	})
	close(gate.open)
	waitFor(t, 5*time.Second, "backlog delivered", func() bool { return col.count() == n })
	if b := out.BatchesOut(); b >= n/runCap {
		t.Errorf("backlog of %d records left in %d batches, want fewer than %d", n, b, n/runCap)
	}
}

// flushFailSink accepts every record and fails every Flush, the shape of
// a streamout whose downstream has gone away.
type flushFailSink struct{ flushes atomic.Int64 }

var errDownstreamClosed = errors.New("downstream closed")

func (*flushFailSink) Name() string                 { return "flushfail" }
func (*flushFailSink) Consume(*record.Record) error { return nil }
func (s *flushFailSink) Flush() error {
	s.flushes.Add(1)
	return errDownstreamClosed
}

// TestRunEndFlushFailureStopsUnit: a run-end flush that fails stops the
// hosted unit once — reported failed with the sink's error, flushed no
// more, its listener closed — with and without a run queue, even when
// more runs are on their way.
func TestRunEndFlushFailureStopsUnit(t *testing.T) {
	for _, tc := range []struct {
		name  string
		queue int
	}{{"direct", 0}, {"queued", DefaultQueueSize}} {
		t.Run(tc.name, func(t *testing.T) {
			in, err := NewStreamIn("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			in.QueueSize = tc.queue
			in.Pooled = true
			sink := &flushFailSink{}
			node := NewNode("host-a", NewRegistry())
			defer node.StopAll()
			if err := node.HostUnit("seg", "", in, NewSegment("seg", Relay{}), sink); err != nil {
				t.Fatal(err)
			}
			up := NewStreamOutBatched(in.Addr(), hourPolicy())
			defer up.Close()
			sendBatch(t, up, 0, 10)
			for seq := uint64(10); seq < 20; seq++ {
				if err := up.Consume(seqData(seq)); err != nil {
					t.Fatal(err)
				}
			}
			up.Close() // one bounded attempt: the unit may be gone already
			want := "sink flushfail: " + errDownstreamClosed.Error()
			waitFor(t, 5*time.Second, "unit reported failed", func() bool {
				st := node.Stats()
				return len(st) == 1 && st[0].Failed && st[0].Err == want
			})
			if c, err := net.DialTimeout("tcp", in.Addr(), time.Second); err == nil {
				c.Close()
				t.Fatalf("failed unit's listener %s still accepts connections", in.Addr())
			}
			if f := sink.flushes.Load(); f != 1 {
				t.Errorf("sink flushed %d times, want 1", f)
			}
		})
	}
}
