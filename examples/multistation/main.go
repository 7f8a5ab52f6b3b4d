// Multistation: demonstrates the multi-pipeline control plane — one
// coordinator maintaining many stations' pipelines over one shared node
// pool. Eight stations each stream through their own relay pipeline
// (p1..p8), placed across four nodes by the load-aware policy; every
// station follows only its own pipeline's entry address. When one node
// is killed, only the pipelines it hosted are re-placed and re-spliced —
// the other stations' entry watches stay silent and their streams never
// move. A ninth pipeline is then added at runtime (the pipeline_add
// verb) and removed again, without restarting anything.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/river"
	"repro/internal/rivertest"
)

const (
	nStations = 8
	nNodes    = 4
)

func main() {
	t := &rivertest.Main{}
	defer t.Close()

	// One coordinator, one shared node pool, one load-aware placer, and
	// one audited terminal per pipeline, so the accounting is per station.
	pipeIDs := make([]string, nStations)
	specs := make([]river.PipelineSpec, nStations)
	for i := range pipeIDs {
		pipeIDs[i] = fmt.Sprintf("p%d", i+1)
		specs[i] = river.PipelineSpec{ID: pipeIDs[i], Segments: []river.SegmentSpec{{Name: "relay", Type: "relay"}}}
	}
	c := rivertest.Start(t, river.Config{
		Pipelines: specs,
		MinNodes:  nNodes,
		Placer:    river.LoadAware{},
	}, nNodes)

	// byNode maps node -> the pipelines it hosts.
	byNode := func() map[string][]string {
		out := map[string][]string{}
		for _, p := range c.Coord.Status().Placements {
			if p.Placed {
				out[p.Node] = append(out[p.Node], p.Pipeline)
			}
		}
		for _, ids := range out {
			sort.Strings(ids)
		}
		return out
	}
	layout := byNode()
	fmt.Printf("phase 1: %d pipelines placed across %d nodes:\n", nStations, nNodes)
	for _, name := range c.Nodes() {
		fmt.Printf("  %s hosts %v\n", name, layout[name])
	}

	// Every station streams through its own pipeline, following only that
	// pipeline's entry address.
	loads := map[string]*rivertest.Load{}
	for _, id := range pipeIDs {
		loads[id] = c.Load(rivertest.LoadSpec{Pipeline: id, Pace: 2 * time.Millisecond})
	}
	for _, id := range pipeIDs {
		c.Sink(id).AwaitReceived(1)
	}
	fmt.Printf("phase 1: all %d stations streaming through one coordinator\n", nStations)

	// Phase 2: kill one node mid-stream. Only its pipelines may move.
	victim := c.Nodes()[nNodes-1]
	affected := layout[victim]
	isAffected := map[string]bool{}
	for _, id := range affected {
		isAffected[id] = true
	}
	fmt.Printf("phase 2: killing %s (hosts %v) under streaming load\n", victim, affected)
	cur, killedAt := c.Cursor(), time.Now()
	c.Kill(victim)
	for _, id := range affected {
		c.WaitEvent(cur, id+"'s new entry", func(e obs.Event) bool { return e.Type == obs.EventEntry && e.Pipeline == id })
	}
	fmt.Printf("phase 2: %v re-placed %.0fms after the kill\n", affected, time.Since(killedAt).Seconds()*1000)

	// Isolation: each affected station follows its new entry — over its
	// own watch connection, so possibly after the coordinator already
	// moved it — and carries records again; the unaffected stations'
	// streams never move.
	for _, id := range affected {
		c.Until(id+"'s station re-routed", func() bool { return loads[id].Moves() > 0 })
		c.Sink(id).AwaitMore(1)
	}
	for _, id := range pipeIDs {
		if n := loads[id].Moves(); !isAffected[id] && n != 0 {
			log.Fatalf("unaffected pipeline %s moved %d time(s); failover must be isolated", id, n)
		}
	}
	fmt.Printf("phase 2: only the affected stations saw entry updates; the other %d streams never moved\n",
		nStations-len(affected))

	// Phase 3: grow the fleet at runtime — a ninth pipeline via the
	// pipeline_add verb, no restart, then remove it again.
	sink9 := rivertest.NewSink(t)
	if err := river.RequestPipelineAdd(c.Coord.Addr(), river.PipelineSpec{
		ID:       "p9",
		Segments: []river.SegmentSpec{{Name: "relay", Type: "relay"}},
		SinkAddr: sink9.Addr(),
	}, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	load9 := c.Load(rivertest.LoadSpec{Pipeline: "p9", Pace: 2 * time.Millisecond})
	sink9.AwaitReceived(1)
	fmt.Println("phase 3: pipeline p9 added at runtime and carrying records")
	load9.End()
	if err := river.RequestPipelineRemove(c.Coord.Addr(), "p9", 10*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 3: pipeline p9 removed at runtime")

	// Teardown and report.
	fmt.Printf("\n%-4s %8s %8s %8s\n", "pipe", "records", "repairs", "moves")
	loads["p9"] = load9
	for _, id := range append(pipeIDs, "p9") {
		sink := sink9
		if id != "p9" {
			sink = c.Sink(id)
			loads[id].End()
		}
		a := sink.Tally()
		fmt.Printf("%-4s %8d %8d %8d\n", id, a.Received, a.Repairs, loads[id].Moves())
		if a.Received == 0 {
			log.Fatalf("pipeline %s delivered nothing", id)
		}
		if !isAffected[id] && id != "p9" && a.Repairs != 0 {
			log.Fatalf("unaffected pipeline %s repaired %d scope(s); the node kill must not touch it", id, a.Repairs)
		}
	}
	fmt.Println("\nmultistation: one coordinator, nine pipelines, one node kill — isolated recovery")
}
