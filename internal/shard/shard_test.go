package shard

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
)

// collectEmitter gathers the collector's output for assertions.
type collectEmitter struct {
	mu   sync.Mutex
	recs []*record.Record
}

func (c *collectEmitter) Emit(r *record.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r.CloneInto(new(record.Record)))
	return nil
}

func (c *collectEmitter) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

func (c *collectEmitter) snapshot() []*record.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*record.Record(nil), c.recs...)
}

func waitCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// throttleProxy forwards a leg's bytes to dst, pacing each read by delay,
// so one shard leg can be made arbitrarily slower than its siblings.
func throttleProxy(t *testing.T, dst string, delay time.Duration) (addr string, closeFn func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				d, err := net.Dial("tcp", dst)
				if err != nil {
					return
				}
				defer d.Close()
				go func() { _, _ = io.Copy(c, d) }()
				buf := make([]byte, 512)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if delay > 0 {
							time.Sleep(delay)
						}
						if _, werr := d.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String(), func() { _ = ln.Close() }
}

// keyedData builds a data record of logical stream key carrying its
// per-stream index and global index as payload.
func keyedData(key uint32, perStream, global int) *record.Record {
	r := record.NewData(record.SubtypeAudio)
	r.SourceID = key
	r.SetFloat64s([]float64{float64(key), float64(perStream), float64(global)})
	return r
}

// TestPartitionCollectOrder is the adversarial-interleave acceptance test
// for the tentpole's data plane: 8 shard legs, a heavily skewed key
// distribution (a third of the stream hashes to one hot key), and one leg
// an order of magnitude slower than its siblings. The collector must emit
// every record exactly once in the partitioner's exact input order — which
// implies per-stream order — with zero gap-skips.
func TestPartitionCollectOrder(t *testing.T) {
	col, err := NewCollector(CollectorConfig{Group: "g", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectEmitter{}
	done := make(chan error, 1)
	go func() { done <- col.Run(sink) }()

	const k = 8
	legs := make([]string, k)
	for i := range legs {
		delay := time.Duration(0)
		if i == 0 {
			// One slow leg: every batch toward it stalls, so its records
			// arrive far behind its siblings' and the reorder ring does
			// real work. Backpressure (not drops) must pace the hot path.
			delay = 2 * time.Millisecond
		}
		addr, closeProxy := throttleProxy(t, col.Addr(), delay)
		defer closeProxy()
		legs[i] = addr
	}
	p := NewPartitioner(PartitionerConfig{Group: "g", Epoch: 1, Legs: legs, Flush: record.PerRecordConfig()})

	const n = 4000
	const hotKey = 7
	perStream := map[uint32]int{}
	for i := 0; i < n; i++ {
		key := uint32(hotKey)
		if i%3 != 0 {
			key = uint32(1 + i%29)
		}
		r := keyedData(key, perStream[key], i)
		perStream[key]++
		if err := p.Consume(r); err != nil {
			t.Fatalf("consume %d: %v", i, err)
		}
		record.Release(r)
	}
	waitCond(t, 30*time.Second, "all records collected", func() bool { return sink.len() >= n })
	_ = p.Close()
	_ = col.Close()
	if err := <-done; err != nil {
		t.Fatalf("collector run: %v", err)
	}

	recs := sink.snapshot()
	if len(recs) != n {
		t.Fatalf("collected %d records, want exactly %d", len(recs), n)
	}
	stream := record.ShardStreamID("g")
	lastPerStream := map[int]int{}
	for i, r := range recs {
		if _, seq, ok := record.ReplicaTag(r, stream); !ok || seq != uint64(i) {
			t.Fatalf("record %d out of total order: tag ok=%v seq=%d", i, ok, seq)
		}
		v, err := r.Float64s()
		if err != nil || len(v) != 3 {
			t.Fatalf("record %d payload: %v %v", i, v, err)
		}
		if int(v[2]) != i {
			t.Fatalf("record %d carries global index %d", i, int(v[2]))
		}
		key, idx := int(v[0]), int(v[1])
		if last, ok := lastPerStream[key]; ok && idx != last+1 {
			t.Fatalf("stream %d out of order: index %d after %d", key, idx, last)
		}
		lastPerStream[key] = idx
	}
	if got := col.Skipped(); got != 0 {
		t.Errorf("collector skipped %d sequence slots; a lossless run must skip none", got)
	}
	if got := col.Untagged(); got != 0 {
		t.Errorf("collector discarded %d untagged records", got)
	}
	if got := col.CorruptBatches(); got != 0 {
		t.Errorf("corrupt batches = %d on a clean stream", got)
	}
	if got := p.LegDrops(); got != 0 {
		t.Errorf("partitioner dropped %d records with legs present", got)
	}
	if len(perStream) < 2 || perStream[hotKey] < n/4 {
		t.Fatalf("key skew not exercised: %d streams, hot=%d", len(perStream), perStream[hotKey])
	}
}

// TestScaleInFlushesRetiredLegs shrinks a live partitioner from 4 legs to
// 2 mid-stream and expects zero loss: the removed legs must flush their
// queued tails through their old connections (the retire linger) instead
// of abandoning them, so an autoscaler shrink never costs records.
func TestScaleInFlushesRetiredLegs(t *testing.T) {
	col, err := NewCollector(CollectorConfig{Group: "g", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectEmitter{}
	done := make(chan error, 1)
	go func() { done <- col.Run(sink) }()

	legs := make([]string, 4)
	closers := make([]func(), 4)
	for i := range legs {
		legs[i], closers[i] = throttleProxy(t, col.Addr(), 0)
		defer closers[i]()
	}
	p := NewPartitioner(PartitionerConfig{Group: "g", Epoch: 1, Legs: legs, Flush: record.PerRecordConfig()})

	const n = 3000
	for i := 0; i < n; i++ {
		r := keyedData(uint32(1+i%31), 0, i)
		if err := p.Consume(r); err != nil {
			t.Fatalf("consume %d: %v", i, err)
		}
		record.Release(r)
		if i == n/2 {
			// Shrink mid-stream with both halves of the leg set holding
			// queued records.
			p.SetLegs(legs[:2])
		}
	}
	waitCond(t, 30*time.Second, "all records across the shrink", func() bool { return sink.len() >= n })
	if got := p.Legs(); len(got) != 2 {
		t.Fatalf("legs after shrink: %v", got)
	}
	_ = p.Close()
	_ = col.Close()
	if err := <-done; err != nil {
		t.Fatalf("collector run: %v", err)
	}

	recs := sink.snapshot()
	if len(recs) != n {
		t.Fatalf("collected %d records, want exactly %d", len(recs), n)
	}
	stream := record.ShardStreamID("g")
	for i, r := range recs {
		if _, seq, ok := record.ReplicaTag(r, stream); !ok || seq != uint64(i) {
			t.Fatalf("record %d out of order across the shrink: tag ok=%v seq=%d", i, ok, seq)
		}
	}
	if got := col.Skipped(); got != 0 {
		t.Errorf("collector skipped %d slots; the retired legs abandoned records", got)
	}
}

// TestEgressMonotonicAcrossSetLegs shrinks a live partitioner and watches
// its egress totals: they must never step back when a leg leaves the set,
// and must keep counting what the retired leg flushes after the swap, so
// every consumed record ends up in RecordsOut.
func TestEgressMonotonicAcrossSetLegs(t *testing.T) {
	col, err := NewCollector(CollectorConfig{Group: "g", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectEmitter{}
	done := make(chan error, 1)
	go func() { done <- col.Run(sink) }()

	legs := make([]string, 3)
	for i := range legs {
		addr, closeProxy := throttleProxy(t, col.Addr(), 0)
		defer closeProxy()
		legs[i] = addr
	}
	p := NewPartitioner(PartitionerConfig{Group: "g", Epoch: 1, Legs: legs, Flush: record.PerRecordConfig()})

	const n = 1500
	var last uint64
	checkMonotonic := func(when string) {
		t.Helper()
		got := p.RecordsOut()
		if got < last {
			t.Fatalf("records out stepped back %s: %d -> %d", when, last, got)
		}
		last = got
	}
	for i := 0; i < n; i++ {
		r := keyedData(uint32(1+i%31), 0, i)
		if err := p.Consume(r); err != nil {
			t.Fatalf("consume %d: %v", i, err)
		}
		record.Release(r)
		if i == n/2 {
			waitCond(t, 5*time.Second, "every leg flushing", func() bool {
				for _, flushed := range p.LegRecords() {
					if flushed == 0 {
						return false
					}
				}
				return true
			})
			checkMonotonic("before the shrink")
			p.SetLegs(legs[:1])
			checkMonotonic("across SetLegs")
		}
	}
	waitCond(t, 30*time.Second, "all records flushed, retired tails included", func() bool {
		checkMonotonic("after the shrink")
		return last == n
	})
	_ = p.Close()
	_ = col.Close()
	if err := <-done; err != nil {
		t.Fatalf("collector run: %v", err)
	}
}

// TestShardIndexSpread sanity-checks the leg hash: sequential source IDs
// (the common fnv-derived pattern) must spread across every leg rather
// than aliasing onto a few.
func TestShardIndexSpread(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8} {
		counts := make([]int, k)
		const keys = 4096
		for key := uint32(1); key <= keys; key++ {
			idx := shardIndex(key, k)
			if idx < 0 || idx >= k {
				t.Fatalf("k=%d key=%d: index %d out of range", k, key, idx)
			}
			counts[idx]++
		}
		for i, c := range counts {
			if c < keys/k/2 || c > keys/k*2 {
				t.Errorf("k=%d: leg %d got %d of %d keys (want near %d)", k, i, c, keys, keys/k)
			}
		}
	}
}

// TestKeyFuncOrder is the adversarial order test for the routing key:
// consecutive records carry SourceIDs that hash across every leg, one of
// which is an order of magnitude slower, so adjacent records race each
// other on different legs. The collector must still emit the exact total
// input order.
func TestKeyFuncOrder(t *testing.T) {
	col, err := NewCollector(CollectorConfig{Group: "kf", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectEmitter{}
	done := make(chan error, 1)
	go func() { done <- col.Run(sink) }()

	const k = 4
	legs := make([]string, k)
	for i := range legs {
		delay := time.Duration(0)
		if i == 1 {
			delay = 2 * time.Millisecond
		}
		addr, closeProxy := throttleProxy(t, col.Addr(), delay)
		defer closeProxy()
		legs[i] = addr
	}
	p := NewPartitioner(PartitionerConfig{
		Group: "kf", Epoch: 1, Legs: legs,
		Flush: record.PerRecordConfig(),
	})

	const n = 2000
	legsUsed := map[int]bool{}
	for i := 0; i < n; i++ {
		r := record.NewData(uint16(i % 13))
		r.SourceID = uint32(i % 13) // the shard key, varying per record
		r.SetFloat64s([]float64{float64(i)})
		legsUsed[shardIndex(r.SourceID, k)] = true
		if err := p.Consume(r); err != nil {
			t.Fatalf("consume %d: %v", i, err)
		}
		record.Release(r)
	}
	if len(legsUsed) < 3 {
		t.Fatalf("SourceID routing collapsed onto %d legs; the test needs real spread", len(legsUsed))
	}
	waitCond(t, 30*time.Second, "all records collected", func() bool { return sink.len() >= n })
	_ = p.Close()
	_ = col.Close()
	if err := <-done; err != nil {
		t.Fatalf("collector run: %v", err)
	}

	recs := sink.snapshot()
	if len(recs) != n {
		t.Fatalf("collected %d records, want exactly %d", len(recs), n)
	}
	stream := record.ShardStreamID("kf")
	for i, r := range recs {
		if _, seq, ok := record.ReplicaTag(r, stream); !ok || seq != uint64(i) {
			t.Fatalf("record %d out of total order: tag ok=%v seq=%d", i, ok, seq)
		}
		if r.Subtype != uint16(i%13) {
			t.Fatalf("record %d: subtype %d, want %d", i, r.Subtype, i%13)
		}
		v, err := r.Float64s()
		if err != nil || len(v) != 1 || int(v[0]) != i {
			t.Fatalf("record %d payload: %v %v", i, v, err)
		}
	}
	if got := col.Skipped(); got != 0 {
		t.Errorf("collector skipped %d sequence slots", got)
	}
}
