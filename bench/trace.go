package main

import (
	"encoding/binary"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
)

// Tracing from outside the program. A traced run hands the topology the
// benchmark's own decorators — around every operator, every hosted
// unit's source and sink, the entry sink the generator drives and the
// terminal oracle — so each layer boundary records a span without any
// change inside the layers. Every record is counted at every boundary;
// only marker records (one input record in tracer.every, or every clip's
// CloseScope on station_pipeline) are timed, and the same markers are
// timed at every boundary so their spans chain into one path per record.

// Boundary kinds.
const (
	kindGen    = "gen"    // generator: due time -> hand-off to the entry sink
	kindEntry  = "entry"  // entry sink Consume (streamout, splitter, partitioner)
	kindSource = "source" // hosted unit's source emitting into the unit
	kindOp     = "op"     // operator Process
	kindSink   = "sink"   // hosted unit's sink Consume
	kindOracle = "oracle" // terminal audit sink Consume
)

// event is one timed call: start/end in ns since the tracer epoch, child
// the part of that interval spent inside downstream Emit calls.
type event struct {
	id         uint64
	start, end int64
	child      int64
}

// boundary is one decorated call site. A boundary is driven by one
// goroutine at a time (a pipeline stage, or the merger's emit lock). The
// counters are atomic so phase snapshots can read them while the unit
// runs; events are read after teardown.
type boundary struct {
	layer string // metric/layer name, e.g. "ops.relay", "pipeline.sink_consume"
	kind  string
	unit  string // hosted unit ("" for gen/entry)
	stage int    // position of the unit along the path (0: generator side)
	leg   int    // fan-out leg number from 1, 0 when the unit is not a leg
	pos   int    // position inside the unit: source, operators, sink

	count  atomic.Uint64 // every call
	timed  atomic.Uint64 // calls that were timed
	selfNs atomic.Int64  // sum of (end-start-child) over timed calls
	events []event       // marker calls only

	// Source boundaries also sample the gap between the end of a timed
	// Emit and the start of the next one: the time the source waited for
	// input rather than for its downstream.
	lastEnd int64
	waitNs  atomic.Int64
	waits   atomic.Uint64
}

func (b *boundary) record(id uint64, marked bool, start, end, child int64) {
	b.timed.Add(1)
	b.selfNs.Add(end - start - child)
	if marked {
		b.events = append(b.events, event{id: id, start: start, end: end, child: child})
	}
}

// recordGen records the generator's span for a marker: it runs from the
// record's due time to its hand-off to the entry sink, and the generator's
// self time is only the part after it began stamping the record (before
// that it was late, or held at its concurrency limit).
func (b *boundary) recordGen(id uint64, due, began, handoff int64) {
	b.record(id, true, due, handoff, began-due)
}

// tracer owns the boundaries of one traced topology.
type tracer struct {
	epoch time.Time
	// every: one input record in this many is a marker (by record index).
	every uint64
	// timeAll times every call, not only markers; used where record rates
	// are low and records change identity inside operators (station).
	timeAll bool
	bounds  []*boundary
}

func newTracer(every uint64, timeAll bool) *tracer {
	return &tracer{epoch: time.Now(), every: every, timeAll: timeAll}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts an absolute UnixNano stamp to tracer time.
func (t *tracer) at(unixNano int64) int64 { return unixNano - t.epoch.UnixNano() }

// boundary registers a call site. Topologies are built sink-first, so
// registration order is not path order; ordered() restores it.
func (t *tracer) boundary(layer, kind, unit string, stage, leg, pos int) *boundary {
	b := &boundary{layer: layer, kind: kind, unit: unit, stage: stage, leg: leg, pos: pos}
	t.bounds = append(t.bounds, b)
	return b
}

// ordered returns the boundaries in path order.
func (t *tracer) ordered() []*boundary {
	out := append([]*boundary(nil), t.bounds...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.stage != b.stage {
			return a.stage < b.stage
		}
		if a.leg != b.leg {
			return a.leg < b.leg
		}
		return a.pos < b.pos
	})
	return out
}

// clipMarkSize is the payload a station clip's CloseScope carries: clip
// index, the due time of the clip's last input record, and which clip of
// the set it is.
const clipMarkSize = 20

// marker reports whether r is a marker record and its id.
func (t *tracer) marker(r *record.Record) (uint64, bool) {
	switch {
	case r.Kind == record.KindData && len(r.Payload) == payloadSize && r.PayloadType == record.PayloadPCM16:
		idx := binary.LittleEndian.Uint64(r.Payload[offIndex:])
		return idx, idx%t.every == 0
	case r.Kind == record.KindCloseScope && r.Scope == 0 && len(r.Payload) == clipMarkSize:
		idx := binary.LittleEndian.Uint64(r.Payload)
		return idx, idx%t.every == 0
	}
	return 0, false
}

// tracedOp decorates one operator.
type tracedOp struct {
	pipeline.Operator
	t *tracer
	b *boundary
}

func (o *tracedOp) Process(r *record.Record, out pipeline.Emitter) error {
	o.b.count.Add(1)
	id, marked := o.t.marker(r)
	if !marked && !o.t.timeAll {
		return o.Operator.Process(r, out)
	}
	var child int64
	start := o.t.now()
	err := o.Operator.Process(r, pipeline.EmitterFunc(func(x *record.Record) error {
		s := o.t.now()
		e := out.Emit(x)
		child += o.t.now() - s
		return e
	}))
	o.b.record(id, marked, start, o.t.now(), child)
	return err
}

// wrapOps decorates a segment's operator chain.
func (t *tracer) wrapOps(unit string, stage, leg int, ops []pipeline.Operator) []pipeline.Operator {
	out := make([]pipeline.Operator, len(ops))
	for i, op := range ops {
		out[i] = &tracedOp{Operator: op, t: t, b: t.boundary("ops."+op.Name(), kindOp, unit, stage, leg, 1+i)}
	}
	return out
}

// tracedSink decorates a sink: a hosted unit's egress, the entry sink the
// generator drives, or the terminal oracle.
type tracedSink struct {
	pipeline.Sink
	t *tracer
	b *boundary
}

func (k *tracedSink) Consume(r *record.Record) error {
	k.b.count.Add(1)
	id, marked := k.t.marker(r)
	if !marked && !k.t.timeAll {
		return k.Sink.Consume(r)
	}
	start := k.t.now()
	err := k.Sink.Consume(r)
	k.b.record(id, marked, start, k.t.now(), 0)
	return err
}

// Close forwards to the decorated sink so a stopping node still closes
// the streamout behind the decorator.
func (k *tracedSink) Close() error {
	if c, ok := k.Sink.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// tracedSource decorates a hosted unit's source. The three optional
// interfaces the pipeline discovers by assertion are forwarded, so a
// decorated streamin or merger keeps its sequence-preserving, recycling
// and shutdown behaviour.
type tracedSource struct {
	pipeline.Source
	t *tracer
	b *boundary
}

func (s *tracedSource) PreservesSeq() bool {
	sp, ok := s.Source.(pipeline.SeqPreserver)
	return ok && sp.PreservesSeq()
}

func (s *tracedSource) RecyclesRecords() bool {
	rs, ok := s.Source.(pipeline.RecycledSource)
	return ok && rs.RecyclesRecords()
}

func (s *tracedSource) Close() error {
	if c, ok := s.Source.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

func (s *tracedSource) Run(out pipeline.Emitter) error {
	b := s.b
	return s.Source.Run(pipeline.EmitterFunc(func(r *record.Record) error {
		b.count.Add(1)
		id, marked := s.t.marker(r)
		if !marked && !s.t.timeAll && b.lastEnd == 0 {
			return out.Emit(r)
		}
		start := s.t.now()
		if b.lastEnd != 0 {
			b.waitNs.Add(start - b.lastEnd)
			b.waits.Add(1)
			b.lastEnd = 0
			if !marked && !s.t.timeAll {
				return out.Emit(r)
			}
		}
		err := out.Emit(r)
		end := s.t.now()
		b.record(id, marked, start, end, 0)
		b.lastEnd = end
		return err
	}))
}

// Span is one entry of the trace file.
type Span struct {
	Name   string `json:"name"`
	Unit   string `json:"unit,omitempty"`
	ID     uint64 `json:"id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// BudgetRow is one line of the per-workload time budget: the mean time a
// marker record spent in one layer on its way from due time to the sink.
type BudgetRow struct {
	Layer  string  `json:"layer"`
	MeanUs float64 `json:"mean_us"`
	Share  float64 `json:"share"`
}

// Budget decomposes marker records' time in the system by layer.
type Budget struct {
	Markers  int         `json:"markers"`
	E2EUs    float64     `json:"e2e_mean_us"`
	Coverage float64     `json:"coverage"`
	Rows     []BudgetRow `json:"rows"`
}

// budget chains every marker's spans into one path and averages the time
// each layer owns. Segments between consecutive boundaries belong to:
//
//	loadgen            due time -> entry Consume start (generator lateness)
//	<entry layer>      entry Consume
//	pipeline.hop -> u  upstream Consume end -> unit u's source emit (batch
//	                   wait, wire, decode, emit queue); replica.merger or
//	                   shard.collector when the source is the fan-in ring
//	ops.<name>         operator self time
//	pipeline.stage @ u the rest of source emit -> sink Consume start
//	                   (channel hand-offs between unit u's stages)
//	<sink layer>       hosted sink Consume
//
// The path ends when the oracle's Consume starts, which is the instant
// the end-to-end latency is taken. Coverage is the attributed time over
// the end-to-end time; a boundary that missed a marker leaves its
// segments unattributed and shows as coverage below 1.
func (t *tracer) budget(from, to int64) Budget {
	// Marker id -> stage along the path -> that stage's events.
	marks := make(map[uint64]map[int][]*boundaryEvent)
	for _, b := range t.bounds {
		for i := range b.events {
			ev := &b.events[i]
			if marks[ev.id] == nil {
				marks[ev.id] = make(map[int][]*boundaryEvent)
			}
			marks[ev.id][b.stage] = append(marks[ev.id][b.stage], &boundaryEvent{b: b, ev: ev})
		}
	}
	sums := make(map[string]float64)
	var e2eSum, covSum float64
	n := 0
	for _, byStage := range marks {
		gen := firstOfKind(byStage[0], kindGen, 0)
		if gen == nil || gen.ev.start < from || gen.ev.start >= to {
			continue
		}
		stages := make([]int, 0, len(byStage))
		for s := range byStage {
			stages = append(stages, s)
		}
		sort.Ints(stages)
		oracle := firstOfKind(byStage[stages[len(stages)-1]], kindOracle, 0)
		if oracle == nil {
			continue // never reached the oracle
		}
		e2e := float64(oracle.ev.start - gen.ev.start)
		if e2e <= 0 {
			continue
		}
		attributed := 0.0
		add := func(layer string, d int64) {
			if d < 0 {
				d = 0
			}
			sums[layer] += float64(d)
			attributed += float64(d)
		}
		// Stage 0: generator and entry sink.
		add("loadgen", gen.ev.end-gen.ev.start)
		prevEnd := gen.ev.end
		if en := firstOfKind(byStage[0], kindEntry, 0); en != nil {
			add(en.b.layer, en.ev.end-en.ev.start)
			prevEnd = en.ev.end
		}
		for _, s := range stages {
			if s == 0 {
				continue
			}
			evs := byStage[s]
			leg := winningLeg(evs)
			src := firstOfKind(evs, kindSource, leg)
			if src == nil {
				continue
			}
			add(hopLayer(src.b.layer)+" -> "+src.b.unit, src.ev.start-prevEnd)
			var opSelf int64
			for _, be := range evs {
				if be.b.kind == kindOp && be.b.leg == leg {
					self := be.ev.end - be.ev.start - be.ev.child
					add(be.b.layer, self)
					opSelf += self
				}
			}
			if or := firstOfKind(evs, kindOracle, leg); or != nil {
				add("pipeline.stage @ "+src.b.unit, or.ev.start-src.ev.start-opSelf)
				break
			}
			snk := firstOfKind(evs, kindSink, leg)
			if snk == nil {
				break
			}
			add("pipeline.stage @ "+src.b.unit, snk.ev.start-src.ev.start-opSelf)
			add(snk.b.layer, snk.ev.end-snk.ev.start)
			prevEnd = snk.ev.end
		}
		e2eSum += e2e
		covSum += attributed / e2e
		n++
	}
	out := Budget{Markers: n}
	if n == 0 {
		return out
	}
	out.E2EUs = e2eSum / float64(n) / 1e3
	out.Coverage = covSum / float64(n)
	for layer, sum := range sums {
		out.Rows = append(out.Rows, BudgetRow{
			Layer:  layer,
			MeanUs: sum / float64(n) / 1e3,
			Share:  sum / e2eSum,
		})
	}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i].MeanUs > out.Rows[j].MeanUs })
	return out
}

type boundaryEvent struct {
	b  *boundary
	ev *event
}

func firstOfKind(evs []*boundaryEvent, kind string, leg int) *boundaryEvent {
	for _, be := range evs {
		if be.b.kind == kind && be.b.leg == leg {
			return be
		}
	}
	return nil
}

// winningLeg picks, among the fan-out legs that carried a marker, the
// one whose sink handed it on first: the copy the fan-in most likely
// delivered. Units that are not legs have leg 0.
func winningLeg(evs []*boundaryEvent) int {
	leg, best := 0, int64(-1)
	for _, be := range evs {
		if be.b.kind != kindSink {
			continue
		}
		if best < 0 || be.ev.end < best {
			leg, best = be.b.leg, be.ev.end
		}
	}
	return leg
}

// hopLayer names the segment that ends at a source's emit: the plain
// streamin hop, or the fan-in ring when the source is a merger/collector.
func hopLayer(sourceLayer string) string {
	switch sourceLayer {
	case "replica.merger_source":
		return "replica.merger"
	case "shard.collector_source":
		return "shard.collector"
	}
	return "pipeline.hop"
}

// spans renders up to limit marker events per boundary for the trace
// file. A span's parent is the boundary that handed it the record: the
// previous one along the path on the same leg (or on the shared trunk).
func (t *tracer) spans(limit int) []Span {
	var out []Span
	var path []*boundary
	for _, b := range t.ordered() {
		parent := ""
		for i := len(path) - 1; i >= 0; i-- {
			if p := path[i]; p.leg == b.leg || p.leg == 0 || b.leg == 0 {
				parent = p.qualified()
				break
			}
		}
		path = append(path, b)
		n := len(b.events)
		if n > limit {
			n = limit
		}
		for _, ev := range b.events[:n] {
			out = append(out, Span{Name: b.layer, Unit: b.unit, ID: ev.id, Start: ev.start, End: ev.end, Parent: parent})
		}
	}
	return out
}

func (b *boundary) qualified() string {
	if b.unit == "" {
		return b.layer
	}
	return b.unit + "/" + b.layer
}
