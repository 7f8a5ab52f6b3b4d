package repro

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/replica"
	"repro/internal/shard"
)

// TestBatchWriterFramingZeroAlloc pins the framing layer: once the batch
// buffer has grown to its working size, encoding a record into a batch
// performs no allocation at all.
func TestBatchWriterFramingZeroAlloc(t *testing.T) {
	bw := record.NewBatchWriter(io.Discard, record.DefaultBatchConfig())
	r := record.NewData(record.SubtypeAudio)
	samples := make([]int16, 32)
	r.SetPCM16(samples)
	// Warm: grow the batch buffer through a few full batches.
	for i := 0; i < 256; i++ {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.Seq++
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("BatchWriter.Write allocates %.2f/record, want 0", allocs)
	}
}

// TestStreamOutConsumeZeroAlloc pins the full send hot path over live
// TCP: batching Consume calls — including the flushes they trigger —
// allocate nothing per record in the steady state.
func TestStreamOutConsumeZeroAlloc(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, conn)
			conn.Close()
		}
	}()
	cfg := record.DefaultBatchConfig()
	cfg.MaxDelay = 0              // no timer churn: flush purely by batch occupancy
	cfg.AdaptMax = cfg.MaxRecords // fixed batch size: runs sized in whole batches
	out := pipeline.NewStreamOutBatched(ln.Addr().String(), cfg)
	r := record.NewData(record.SubtypeAudio)
	samples := make([]int16, 32)
	r.SetPCM16(samples)
	// Warm: dial the connection and grow the batch buffer.
	for i := 0; i < 512; i++ {
		if err := out.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 128; i++ { // two full batches per run
			r.Seq++
			if err := out.Consume(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	out.Close()
	ln.Close()
	<-drained
	if perRecord := allocs / zeroAllocBurst; perRecord > 0.01 {
		t.Fatalf("StreamOut.Consume allocates %.3f/record (%.0f/run), want 0", perRecord, allocs)
	}
}

// TestHostedUnitZeroAlloc pins one hosted hop end to end: a batched
// streamout feeding a relay unit hosted by Node.Host (pooled run queue,
// the operator chain and the streamout run to completion on the drain
// goroutine), whose batched streamout feeds a pooled terminal streamin
// and a releasing sink. Once the pools, run buffers and batch buffers
// have reached their working size, no record allocates.
func TestHostedUnitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; pooled paths allocate by design")
	}
	term, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	term.QueueSize = pipeline.DefaultQueueSize
	term.Pooled = true
	var emitted atomic.Uint64
	runDone := make(chan error, 1)
	go func() {
		runDone <- term.Run(pipeline.EmitterFunc(func(r *record.Record) error {
			emitted.Add(1)
			record.Release(r)
			return nil
		}))
	}()

	reg := pipeline.NewRegistry()
	reg.Register("relay", func() []pipeline.Operator { return []pipeline.Operator{pipeline.Relay{}} })
	node := pipeline.NewNode("za", reg)
	node.FlushPolicy = zeroAllocFlush()
	node.Obs = obs.NewRegistry() // every hosted unit traces, as agents run them
	addr, err := node.Host("relay", "relay", "127.0.0.1:0", term.Addr())
	if err != nil {
		t.Fatal(err)
	}
	entry := pipeline.NewStreamOutBatched(addr, zeroAllocFlush())

	r := record.NewData(record.SubtypeAudio)
	r.SetPCM16(make([]int16, 32))
	var sent uint64
	burst := func() {
		for i := 0; i < zeroAllocBurst; i++ {
			r.Seq++
			if err := entry.Consume(r); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		deadline := time.Now().Add(10 * time.Second)
		for emitted.Load() < sent {
			if time.Now().After(deadline) {
				t.Fatalf("sink saw %d of %d records", emitted.Load(), sent)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	for i := 0; i < zeroAllocRound/zeroAllocBurst; i++ {
		burst()
	}
	allocs := testing.AllocsPerRun(20, burst)
	_ = entry.Close()
	_ = node.StopAll()
	_ = term.Close()
	<-runDone
	if perRecord := allocs / zeroAllocBurst; perRecord > 0.01 {
		t.Fatalf("hosted relay hop allocates %.3f/record (%.0f/run), want 0", perRecord, allocs)
	}
}

// TestRunRecycleChainZeroAlloc pins run-owned recycling over a chain in
// which every streamin is hosted through Pipeline.Run: a batched entry
// streamout feeding a relay unit hosted by Node.Host, whose streamout
// feeds a terminal unit (a pooled streamin, no operators) that ends in a
// counting sink that releases nothing. Each hosting pipeline hands every
// record back to the streamin that decoded it, which decodes a later run
// into it, so once the run buffers and batch buffers have reached their
// working size no record allocates or touches sync.Pool. That holds under
// -race as well, where sync.Pool drops Puts, so this pin runs there too.
func TestRunRecycleChainZeroAlloc(t *testing.T) {
	reg := pipeline.NewRegistry()
	reg.Register("relay", func() []pipeline.Operator { return []pipeline.Operator{pipeline.Relay{}} })
	node := pipeline.NewNode("za", reg)
	node.FlushPolicy = zeroAllocFlush()
	node.Obs = obs.NewRegistry() // every hosted unit traces, as agents run them

	term, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	term.QueueSize = pipeline.DefaultQueueSize
	term.Pooled = true
	var emitted atomic.Uint64
	count := pipeline.SinkFunc{SinkName: "count", Fn: func(*record.Record) error {
		emitted.Add(1)
		return nil
	}}
	if err := node.HostUnit("term", "", term, pipeline.NewSegment("term"), count); err != nil {
		t.Fatal(err)
	}
	addr, err := node.Host("relay", "relay", "127.0.0.1:0", term.Addr())
	if err != nil {
		t.Fatal(err)
	}
	entry := pipeline.NewStreamOutBatched(addr, zeroAllocFlush())

	r := record.NewData(record.SubtypeAudio)
	r.SetPCM16(make([]int16, 32))
	var sent uint64
	burst := func() {
		for i := 0; i < zeroAllocBurst; i++ {
			r.Seq++
			if err := entry.Consume(r); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		deadline := time.Now().Add(10 * time.Second)
		for emitted.Load() < sent {
			if time.Now().After(deadline) {
				t.Fatalf("sink saw %d of %d records", emitted.Load(), sent)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	for i := 0; i < zeroAllocRound/zeroAllocBurst; i++ {
		burst()
	}
	allocs := testing.AllocsPerRun(20, burst)
	_ = entry.Close()
	_ = node.StopAll()
	if perRecord := allocs / zeroAllocBurst; perRecord > 0.01 {
		t.Fatalf("run-owned chain allocates %.3f/record (%.0f/run), want 0", perRecord, allocs)
	}
}

// TestShardPathZeroAlloc pins the sharded data plane end to end: a record
// consumed by the partitioner (pooled copy + replica tag + route), batch-
// framed over live TCP, decoded into the collector's pooled reader,
// reordered through the seq ring and released by the sink — all without
// per-record allocation once the pools and batch buffers have reached
// their working size.
func TestShardPathZeroAlloc(t *testing.T) {
	col, err := shard.NewCollector(shard.CollectorConfig{
		Group: "za", ListenAddr: "127.0.0.1:0", Pooled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := shard.NewPartitioner(shard.PartitionerConfig{
		Group: "za", Epoch: 1, Legs: []string{col.Addr()}, Flush: zeroAllocFlush(),
	})
	fanPathZeroAlloc(t, "partition->collect", p, col.Merger, 1, false)
}

// TestReplicaPathZeroAlloc pins the replicated data plane the same way:
// the splitter's per-leg pooled copies over three live TCP legs, deduped
// through the merger's ring. The saturated row points one leg at a peer
// that never reads, so its queue stays full and every record is dropped
// toward it: the tolerated-dropout path must not allocate either.
func TestReplicaPathZeroAlloc(t *testing.T) {
	for _, saturated := range []bool{false, true} {
		name := "steady"
		if saturated {
			name = "one leg saturated"
		}
		t.Run(name, func(t *testing.T) {
			m, err := replica.NewMerger(replica.MergerConfig{
				Group: "za", ListenAddr: "127.0.0.1:0", Pooled: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Distinct addresses: a splitter's legs are its replicas' hosts.
			legs := []string{forwardTo(t, m.Addr()), forwardTo(t, m.Addr()), forwardTo(t, m.Addr())}
			if saturated {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				go func() {
					conn, err := ln.Accept()
					if err == nil {
						defer conn.Close()
						<-make(chan struct{}) // hold the connection, never read
					}
				}()
				legs[2] = ln.Addr().String()
			}
			s := replica.NewSplitter(replica.SplitterConfig{
				Group: "za", Epoch: 1, Legs: legs, Flush: zeroAllocFlush(),
			})
			fanPathZeroAlloc(t, "split->merge", s, m, len(legs), saturated)
		})
	}
}

// forwardTo listens on a fresh address and splices every connection it
// accepts through to dst, standing in for a replica host.
func forwardTo(t *testing.T, dst string) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				out, err := net.Dial("tcp", dst)
				if err != nil {
					return
				}
				defer out.Close()
				_, _ = io.Copy(out, conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// zeroAllocFlush is the leg framing the fan-path pins run under.
func zeroAllocFlush() record.BatchConfig {
	flush := record.DefaultBatchConfig()
	flush.MaxDelay = 0                // no timer churn: flush purely by batch occupancy
	flush.AdaptMax = flush.MaxRecords // fixed batch size: settle() counts on whole batches draining
	return flush
}

// Records move in bursts of two full batches, each followed by a wait for
// the sink to drain: below the default leg queue, so no leg ever refuses a
// record it could have taken, and in whole batches, so no tail is left
// unflushed. A warm-up round is eight bursts.
const (
	zeroAllocBurst = 128
	zeroAllocRound = 8 * zeroAllocBurst
)

// fanPathZeroAlloc drives records through a fan-out endpoint, its live TCP
// legs and the fan-in endpoint into a releasing sink, and fails if the
// steady state allocates per record. Every record travels as copies
// pooled copies (one per leg it is enqueued on). It warms in rounds —
// growing the pools, the reorder ring and the batch buffers — and, when
// saturated, until a whole round has been dropped toward the stalled leg
// (its socket buffers and queue are full). Each burst waits until the sink
// has drained and every redundant copy has been deduped, so the pool cycle
// is closed between runs and a queue burst cannot masquerade as
// steady-state allocation.
func fanPathZeroAlloc(t *testing.T, what string, fanOut interface {
	pipeline.Sink
	LegDrops() uint64
	Close() error
}, fanIn *replica.Merger, copies int, saturated bool) {
	if raceEnabled {
		_ = fanOut.Close()
		_ = fanIn.Close()
		t.Skip("sync.Pool drops Puts under -race; pooled paths allocate by design")
	}
	var emitted atomic.Uint64
	sink := pipeline.EmitterFunc(func(r *record.Record) error {
		emitted.Add(1)
		record.Release(r)
		return nil
	})
	runDone := make(chan error, 1)
	go func() { runDone <- fanIn.Run(sink) }()

	r := record.NewData(record.SubtypeAudio)
	r.SetPCM16(make([]int16, 32))
	// Every live leg delivers every record (the bursts never overflow a
	// live leg's queue), so all but one copy per record end as dups.
	dupsPerRecord := uint64(copies - 1)
	if saturated {
		dupsPerRecord--
	}
	var sent uint64
	burst := func() {
		for i := 0; i < zeroAllocBurst; i++ {
			r.SourceID = uint32(1 + i%13)
			if err := fanOut.Consume(r); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		deadline := time.Now().Add(10 * time.Second)
		for emitted.Load() < sent || fanIn.Dups() < dupsPerRecord*sent {
			if time.Now().After(deadline) {
				t.Fatalf("sink saw %d of %d records and %d of %d redundant copies",
					emitted.Load(), sent, fanIn.Dups(), dupsPerRecord*sent)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	for round, dropped := 0, uint64(0); round == 0 || (saturated && dropped < zeroAllocRound); round++ {
		if round > 4096 {
			t.Fatalf("%s: the stalled leg never saturated in %d records", what, sent)
		}
		before := fanOut.LegDrops()
		for i := 0; i < zeroAllocRound/zeroAllocBurst; i++ {
			burst()
		}
		dropped = fanOut.LegDrops() - before
	}
	allocs := testing.AllocsPerRun(20, burst)
	_ = fanOut.Close()
	_ = fanIn.Close()
	<-runDone
	if perRecord := allocs / 128; perRecord > 0.01 {
		t.Fatalf("%s path allocates %.3f/record (%.0f/run), want 0", what, perRecord, allocs)
	}
	if got := fanIn.Skipped(); got != 0 {
		t.Fatalf("%s fan-in skipped %d slots", what, got)
	}
}
