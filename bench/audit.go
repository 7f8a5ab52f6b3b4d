package main

import (
	"encoding/binary"
	"hash/crc32"
	"sync/atomic"
	"time"

	"repro/internal/record"
)

// The 64-byte audit payload every small-record workload carries. The wire
// header's Seq and SourceID are overwritten by the replica and shard
// taggers, so everything the oracle needs rides in the payload:
//
//	[0:8)   input record index (global, from 0)
//	[8:16)  due time, UnixNano
//	[16:20) station key (per-key order domain)
//	[20:60) seeded filler
//	[60:64) CRC-32C of [0:60)
const (
	payloadSize = 64
	offIndex    = 0
	offDue      = 8
	offKey      = 16
	offFill     = 20
	offCRC      = 60
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// failures counts oracle violations; any nonzero field fails the run.
type failures struct {
	Missing    uint64 `json:"missing"`
	Duplicated uint64 `json:"duplicated"`
	Disordered uint64 `json:"disordered"`
	Corrupt    uint64 `json:"corrupt"`
	// Wrong counts station clips whose streamed detections differ from
	// the core.Analyzer reference, and records of a kind the workload
	// never sends (a BadCloseScope repair, a stray control record).
	Wrong uint64 `json:"wrong"`
}

func (f failures) total() uint64 {
	return f.Missing + f.Duplicated + f.Disordered + f.Corrupt + f.Wrong
}

// latencyLog collects paced-phase latencies (due time to sink arrival) in
// per-window slices. Only the sink goroutine appends; the main goroutine
// reads after the phase has drained (ordered by the accounted counter).
type latencyLog struct {
	start     int64 // UnixNano of the phase start
	windowLen int64
	windows   [][]float64 // milliseconds
}

func newLatencyLog(start time.Time, phase time.Duration, windows, expectPerWindow int) *latencyLog {
	l := &latencyLog{start: start.UnixNano(), windowLen: int64(phase) / int64(windows)}
	l.windows = make([][]float64, windows)
	for i := range l.windows {
		l.windows[i] = make([]float64, 0, expectPerWindow)
	}
	return l
}

// add files one sample under the window its due time falls in.
func (l *latencyLog) add(due, now int64) {
	w := int((due - l.start) / l.windowLen)
	if w < 0 {
		w = 0
	}
	if w >= len(l.windows) {
		w = len(l.windows) - 1
	}
	l.windows[w] = append(l.windows[w], float64(now-due)/1e6)
}

// oracle is what every workload's terminal sink shares: the accounted
// input-record counter the throughput windows read, the failure counters,
// and the latency log of the current paced phase.
type oracle struct {
	// accounted counts input records that reached the sink and passed
	// every check exactly once.
	accounted atomic.Uint64
	// seen counts every record-level verdict (accounted or failed), so a
	// drain can tell "still in flight" from "lost".
	seen atomic.Uint64
	lat  atomic.Pointer[latencyLog]

	// Failure counters are touched only by the sink goroutine and read
	// after the drain.
	fail failures
}

// recordAudit is the terminal sink of the three 64-byte workloads: it
// verifies the payload checksum, exactly-once delivery through a bitmap
// over record indices, and per-key order.
type recordAudit struct {
	oracle
	bits    []uint64
	lastIdx []uint64 // per key: last index seen + 1
}

func newRecordAudit(keys int, expect uint64) *recordAudit {
	return &recordAudit{
		bits:    make([]uint64, expect/64+1),
		lastIdx: make([]uint64, keys),
	}
}

// Name implements pipeline.Sink.
func (a *recordAudit) Name() string { return "audit" }

// Consume implements pipeline.Sink. It never retains r, so a pooled
// source may recycle the record as soon as it returns.
func (a *recordAudit) Consume(r *record.Record) error {
	if a.check(r) {
		a.accounted.Add(1)
	}
	// Last, so a reader that has seen the count also sees the verdict.
	a.seen.Add(1)
	return nil
}

// check runs the oracle over one arrival and reports whether the record
// is accounted for: intact, first copy, in per-key order.
func (a *recordAudit) check(r *record.Record) bool {
	if r.Kind != record.KindData {
		a.fail.Wrong++
		return false
	}
	p := r.Payload
	if len(p) != payloadSize ||
		crc32.Checksum(p[:offCRC], castagnoli) != binary.LittleEndian.Uint32(p[offCRC:]) {
		a.fail.Corrupt++
		return false
	}
	idx := binary.LittleEndian.Uint64(p[offIndex:])
	key := binary.LittleEndian.Uint32(p[offKey:])
	if int(key) >= len(a.lastIdx) {
		a.fail.Corrupt++
		return false
	}
	word, bit := idx/64, uint64(1)<<(idx%64)
	for word >= uint64(len(a.bits)) {
		a.bits = append(a.bits, make([]uint64, len(a.bits))...)
	}
	if a.bits[word]&bit != 0 {
		a.fail.Duplicated++
		return false
	}
	a.bits[word] |= bit
	if idx < a.lastIdx[key] {
		a.fail.Disordered++
		return false
	}
	a.lastIdx[key] = idx + 1
	if l := a.lat.Load(); l != nil {
		l.add(int64(binary.LittleEndian.Uint64(p[offDue:])), time.Now().UnixNano())
	}
	return true
}
