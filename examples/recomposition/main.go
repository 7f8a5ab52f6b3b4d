// Recomposition: demonstrates Dynamic River's headline systems feature —
// surviving the loss of a host that is processing a stream mid-clip. Where
// the paper (and earlier versions of this example) wired the recovery by
// hand, here the control plane automates it: a coordinator owns the
// topology, two node agents offer to host segments, and when the node
// running the extraction segment is killed the coordinator re-places the
// segment on the survivor and redirects the stream. The terminal stage
// validates every record against the scope rules and reports the
// BadCloseScope repairs that keep the stream meaningful.
//
// The final phase demonstrates the inverse failure: the coordinator
// itself is killed and restarted over its journaled state directory. The
// data plane never notices — the agents keep their segments running
// detached, a full clip streams through while no coordinator exists, and
// the restarted coordinator (one epoch higher) adopts the agents'
// re-registered inventories instead of re-placing anything: zero scope
// repairs, zero moved segments.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/river"
	"repro/internal/rivertest"
	"repro/internal/rivertest/eventwait"
	"repro/internal/synth"
)

func main() {
	t := &rivertest.Main{}
	defer t.Close()

	// Control plane: the coordinator owns the topology station -> extract
	// -> terminal, and the terminal validates the scope structure of
	// everything it sees. The state directory makes the coordinator
	// durable — phase 4 kills and restarts it over the same journal.
	stateDir, err := os.MkdirTemp("", "dynriver-state-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)
	c := rivertest.Start(t, river.Config{
		Pipelines:    rivertest.Pipeline(river.SegmentSpec{Name: "extract", Type: "extract"}),
		StateDir:     stateDir,
		RestartGrace: 3 * time.Second,
	}, 2)
	placed := c.Placement("extract")
	fmt.Printf("phase 1: coordinator placed segment %q on %s at %s\n", placed.Seg, placed.Node, placed.Addr)

	// Station: a batch-framed streamout that follows the coordinator's
	// entry address. Batching coalesces the clip's records into one
	// network write per batch; the forced flush on redirect bounds what a
	// failover can cut off to a single batch.
	sink, upstream := c.Sink(""), c.Stream("")
	station := synth.NewStation("kbs-01", 11, synth.ClipConfig{Seconds: 8, Events: 2})
	sendClip := func() {
		before := sink.Tally().Ensembles
		clip, id, err := station.NextClip()
		if err != nil {
			log.Fatal(err)
		}
		c := ops.Clip{ID: id, Station: station.Name, SampleRate: clip.SampleRate, Samples: clip.Samples}
		if err := ops.EmitClip(pipeline.EmitterFunc(upstream.Consume), &c); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("station: sent clip %s\n", id)
		sink.Await("the clip's ensembles", func(t rivertest.Tally) bool { return t.Ensembles > before })
	}
	sendClip()

	// Phase 2: kill the hosting node mid-clip — stream part of a clip so
	// scopes are open end to end, then stop the node abruptly. The
	// coordinator detects the death, re-places the segment on the
	// survivor and redirects the station's stream; the terminal repairs
	// the dangling scopes.
	open := record.NewOpenScope(record.ScopeClip, 0)
	open.SetContext(map[string]string{
		record.CtxSampleRate: "24576",
		record.CtxClipID:     "doomed",
	})
	data := record.NewData(record.SubtypeAudio)
	data.SetFloat64s(make([]float64, ops.RecordSamples))
	for _, r := range []*record.Record{open, data} {
		if err := upstream.Consume(r); err != nil {
			log.Fatal(err)
		}
	}
	sink.Await("the partial clip at the terminal", func(t rivertest.Tally) bool { return t.Open > 0 })

	victim := c.Placement("extract").Node
	fmt.Printf("phase 2: killing %s mid-clip\n", victim)
	cur, killedAt := c.Cursor(), time.Now()
	c.Kill(victim)
	re := c.WaitEvent(cur, "re-placement", eventwait.Is(obs.EventReplace, "extract", ""))
	fmt.Printf("phase 2: coordinator re-placed segment on %s at %s (%.0fms after kill)\n",
		re.Node, re.Addr, time.Since(killedAt).Seconds()*1000)
	repaired := sink.Await("the terminal's scope repairs", func(t rivertest.Tally) bool { return t.Repairs > 0 })
	fmt.Printf("terminal: repaired %d scope(s) after upstream loss\n", repaired.Repairs)

	// Phase 3: finish the doomed clip (the new instance discards its
	// stray tail) and stream one more full clip through the healed
	// pipeline.
	if err := upstream.Consume(record.NewCloseScope(record.ScopeClip, 0)); err != nil {
		log.Fatal(err)
	}
	sendClip()

	// Phase 4: kill the coordinator itself and restart it over the same
	// state directory. The surviving agent keeps its segment running
	// detached — a full clip streams through while no coordinator exists
	// — and the restarted coordinator adopts the agent's re-registered
	// inventory: same node, same address, zero repairs, zero moves.
	placedBefore := c.Placement("extract")
	repairsBefore := sink.Tally().Repairs
	fmt.Printf("phase 4: killing the coordinator (segment %q stays on %s at %s)\n",
		placedBefore.Seg, placedBefore.Node, placedBefore.Addr)
	c.StopCoordinator()
	sendClip() // the data plane flows with no coordinator at all

	c.RestartCoordinator()
	c.WaitEvent(0, "the surviving agent's adoption", eventwait.Is(obs.EventAdopt, "extract", ""))
	placedAfter := c.Placement("extract")
	if placedAfter.Node != placedBefore.Node || placedAfter.Addr != placedBefore.Addr {
		log.Fatalf("segment moved across the restart: %s@%s -> %s@%s (re-placed, not adopted)",
			placedBefore.Node, placedBefore.Addr, placedAfter.Node, placedAfter.Addr)
	}
	if n := sink.Tally().Repairs - repairsBefore; n != 0 {
		log.Fatalf("%d scope repairs during the coordinator bounce; the data plane must not notice", n)
	}
	fmt.Printf("phase 4: coordinator restarted as epoch %d and adopted %s on %s — no repairs, no moves\n",
		c.Coord.Epoch(), placedAfter.Seg, placedAfter.Node)
	sendClip()

	// The survivor's heartbeats carry the flow-control telemetry the
	// load-aware placer feeds on; show what the healed segment reported.
	for _, n := range c.Coord.Status().Nodes {
		for _, s := range n.Segments {
			fmt.Printf("telemetry: %s on %s processed=%d emitted=%d lag=%d queue=%d/%d out: records=%d batches=%d bytes=%d\n",
				s.Name, n.Name, s.Processed, s.Emitted, s.LagValue(), s.QueueDepth, s.QueueCap,
				s.RecordsOut, s.BatchesOut, s.BytesOut)
		}
	}
	fmt.Printf("station transport: %d records in %d batches (%d bytes)\n",
		upstream.RecordsOut(), upstream.BatchesOut(), upstream.BytesOut())

	// Teardown: stop the station and the surviving node (closing its
	// terminal connection at scope depth 0), then report.
	upstream.Close()
	c.Kill(c.Nodes()...)
	a := sink.Await("every scope closed", func(t rivertest.Tally) bool { return t.Open == 0 })
	fmt.Printf("\nterminal survived: %d ensembles delivered, %d scope repairs, %d scope violations\n",
		a.Ensembles, a.Repairs, a.Violations)
	if a.Violations != 0 {
		log.Fatal("the repairs left the stream structurally invalid")
	}
	if a.Repairs == 0 {
		log.Fatal("expected at least one scope repair from the killed node")
	}
	if a.Ensembles == 0 {
		log.Fatal("expected complete ensembles through the recomposed pipeline")
	}
}
