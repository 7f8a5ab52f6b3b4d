package river_test

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/river"
	"repro/internal/rivertest"
)

// TestTwoPipelinesFailoverIsolatedAndRestart is the acceptance scenario
// for the multi-pipeline control plane: two pipelines share a 3-node
// cluster under one coordinator. Killing one node must re-place only the
// units it hosted — the other pipeline's placements must not move and
// its station's entry watch must see nothing — and a coordinator restart
// over the journaled state must reload both pipelines and adopt the
// whole data plane back with zero moves and zero scope repairs.
func TestTwoPipelinesFailoverIsolatedAndRestart(t *testing.T) {
	chain := func(id string) river.PipelineSpec {
		return river.PipelineSpec{ID: id, Segments: []river.SegmentSpec{{Name: "front", Type: "relay"}, {Name: "back", Type: "relay"}}}
	}
	c := rivertest.Start(t, river.Config{
		Pipelines:    []river.PipelineSpec{chain("pa"), chain("pb")},
		MinNodes:     3,
		StateDir:     t.TempDir(),
		RestartGrace: 5 * time.Second,
	}, 3)

	// Per-pipeline entry watches: each must only ever see its own
	// pipeline's entry addresses.
	var mu sync.Mutex
	entries := map[string][]string{}
	watchCtx, watchCancel := context.WithCancel(context.Background())
	defer watchCancel()
	for _, pipe := range []string{"pa", "pb"} {
		go func() {
			_ = river.WatchPipelineEntry(watchCtx, c.Coord.Addr(), pipe, func(a string, _ bool) {
				mu.Lock()
				entries[pipe] = append(entries[pipe], a)
				mu.Unlock()
			})
		}()
	}
	seen := func(pipe string) []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(entries[pipe])
	}
	c.Until("both watchers resolved their entries", func() bool { return len(seen("pa")) >= 1 && len(seen("pb")) >= 1 })
	if seen("pa")[0] != c.Coord.PipelineEntryAddr("pa") || seen("pb")[0] != c.Coord.PipelineEntryAddr("pb") {
		t.Fatalf("watchers resolved wrong entries: pa=%v pb=%v", seen("pa"), seen("pb"))
	}

	// Stream records through both pipelines.
	send := func(seq int) {
		for _, pipe := range []string{"pa", "pb"} {
			out := pipeline.NewStreamOut(c.Coord.PipelineEntryAddr(pipe))
			r := record.NewData(record.SubtypeAudio)
			r.SetFloat64s([]float64{float64(seq)})
			if err := out.Consume(r); err != nil {
				t.Fatal(err)
			}
			_ = out.Close()
		}
		c.Sink("pa").AwaitReceived(seq + 1)
		c.Sink("pb").AwaitReceived(seq + 1)
	}
	send(0)

	// Pick the victim: the node hosting pa's entry segment and nothing of
	// pb (LeastLoaded's deterministic tie-break spreads 2+2 units over 3
	// nodes so such a node exists; the assertions below re-check).
	victim := c.Placement("pa:front").Node
	pbBefore := placementMap(c.Coord, "pb")
	for unit, where := range pbBefore {
		if strings.HasPrefix(where, victim+"@") {
			t.Fatalf("layout premise broken: %s also hosts %s: pa=%v pb=%v", victim, unit, placementMap(c.Coord, "pa"), pbBefore)
		}
	}
	pbWatchBefore := len(seen("pb"))
	cur := c.Cursor()
	c.Kill(victim)
	entry := c.WaitEvent(cur, "pa entry moved", func(e obs.Event) bool { return e.Type == obs.EventEntry && e.Pipeline == "pa" })
	if re := c.Placement("pa:front"); re.Node == victim || re.Addr != entry.Addr {
		t.Fatalf("pa:front after the kill of %s: %+v, entry %s", victim, re, entry.Addr)
	}
	// Isolation: pb's placements did not move, and its watcher saw no new
	// entry; pa's watcher saw the failover.
	if after := placementMap(c.Coord, "pb"); fmt.Sprint(after) != fmt.Sprint(pbBefore) {
		t.Errorf("pb placements disturbed by pa's node death: %v -> %v", pbBefore, after)
	}
	c.Until("pa watcher saw the new entry", func() bool {
		es := seen("pa")
		return len(es) >= 2 && es[len(es)-1] == entry.Addr
	})
	if got := len(seen("pb")); got != pbWatchBefore {
		t.Errorf("pb watcher saw %d extra entry update(s) from pa's failover: %v", got-pbWatchBefore, seen("pb"))
	}
	// Both pipelines carry traffic again.
	send(1)

	// Restart the coordinator over the journal. Both pipelines must come
	// back placed exactly where they were (adoption, zero moves) and no
	// scope repairs may reach either sink.
	paBefore, pbBefore := placementMap(c.Coord, "pa"), placementMap(c.Coord, "pb")
	entryA, entryB := c.Coord.PipelineEntryAddr("pa"), c.Coord.PipelineEntryAddr("pb")
	badA, badB := c.Sink("pa").Tally().Repairs, c.Sink("pb").Tally().Repairs
	c.StopCoordinator()
	c.RestartCoordinator()
	if got := c.Coord.Epoch(); got != 2 {
		t.Fatalf("restarted coordinator epoch = %d, want 2", got)
	}
	if got := c.Coord.Pipelines(); !slices.Equal(got, []string{"pa", "pb"}) {
		t.Fatalf("restarted pipeline set = %v, want [pa pb]", got)
	}
	awaitRegistered(c, 2)
	for pipe, before := range map[string]map[string]string{"pa": paBefore, "pb": pbBefore} {
		if after := placementMap(c.Coord, pipe); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Errorf("%s placements moved across the restart (re-placed, not adopted): %v -> %v", pipe, before, after)
		}
	}
	if got := c.Coord.PipelineEntryAddr("pa"); got != entryA {
		t.Errorf("pa entry changed across restart: %q -> %q", entryA, got)
	}
	if got := c.Coord.PipelineEntryAddr("pb"); got != entryB {
		t.Errorf("pb entry changed across restart: %q -> %q", entryB, got)
	}

	// Traffic still flows through both adopted pipelines, repair-free.
	send(2)
	if bad := c.Sink("pa").Tally().Repairs; bad != badA {
		t.Errorf("pa suffered %d scope repair(s) across the restart", bad-badA)
	}
	if bad := c.Sink("pb").Tally().Repairs; bad != badB {
		t.Errorf("pb suffered %d scope repair(s) across the restart", bad-badB)
	}
}

// TestPipelineAddRemoveRuntime drives the pipeline_add and
// pipeline_remove verbs end to end: a pipeline added at runtime is placed
// onto the shared pool and journaled (a restarted coordinator reloads
// it), and removing it stops its units and persists the removal.
func TestPipelineAddRemoveRuntime(t *testing.T) {
	c := rivertest.Start(t, river.Config{
		Pipelines:    rivertest.Pipeline(river.SegmentSpec{Name: "seg", Type: "relay"}),
		StateDir:     t.TempDir(),
		RestartGrace: 250 * time.Millisecond,
	}, 2)

	// Runtime add over the wire. Its units land on the shared pool.
	spec := river.PipelineSpec{
		ID:       "px",
		Segments: []river.SegmentSpec{{Name: "front", Type: "relay"}, {Name: "back", Type: "relay"}},
		SinkAddr: "127.0.0.1:10",
	}
	cur := c.Cursor()
	if err := river.RequestPipelineAdd(c.Coord.Addr(), spec, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := river.RequestPipelineAdd(c.Coord.Addr(), spec, 5*time.Second); err == nil {
		t.Fatal("duplicate pipeline_add accepted")
	}
	// The entry is published once the whole chain is placed.
	c.WaitEvent(cur, "px placed", func(e obs.Event) bool { return e.Type == obs.EventEntry && e.Pipeline == "px" })
	if got := c.Coord.PipelineEntryAddr("px"); got == "" {
		t.Fatal("px placed but no entry address")
	}
	// Scoped unit names keep the pipelines apart on shared nodes.
	var units []string
	for _, p := range c.Coord.Status().Placements {
		if p.Pipeline == "px" {
			units = append(units, p.Seg)
		}
	}
	if want := []string{"px:front", "px:back"}; !slices.Equal(units, want) {
		t.Fatalf("px units = %v, want %v", units, want)
	}

	// Restart: the runtime-added pipeline must come back from the journal.
	c.StopCoordinator()
	c.RestartCoordinator()
	if got := c.Coord.Pipelines(); !slices.Equal(got, []string{"", "px"}) {
		t.Fatalf("restarted pipeline set = %v, want [ px]", got)
	}

	// Remove px and restart again: the removal must persist too.
	if err := river.RequestPipelineRemove(c.Coord.Addr(), "px", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := river.RequestPipelineRemove(c.Coord.Addr(), "px", 5*time.Second); err == nil {
		t.Fatal("removing an unknown pipeline succeeded")
	}
	c.StopCoordinator()
	c.RestartCoordinator()
	if got := c.Coord.Pipelines(); !slices.Equal(got, []string{""}) {
		t.Fatalf("removed pipeline resurrected: %v", got)
	}
}

// TestStatusJSONGoldenMultiPipeline pins the `status -json` schema for a
// multi-pipeline coordinator to a golden document: two pipelines — one
// replicated, one plain — with deterministic unplaced placements. A
// field rename or reorder breaks scripts; this test catches it.
func TestStatusJSONGoldenMultiPipeline(t *testing.T) {
	coord, err := river.NewCoordinator(river.Config{
		Pipelines: []river.PipelineSpec{
			{ID: "pa", Segments: []river.SegmentSpec{{Name: "rep", Type: "relay", Replicas: 2}}, SinkAddr: "127.0.0.1:9"},
			{ID: "pb", Segments: []river.SegmentSpec{{Name: "seg", Type: "extract"}}, SinkAddr: "127.0.0.1:10"},
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	raw, err := json.MarshalIndent(coord.Status(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "epoch": 1,
  "sink_addr": "127.0.0.1:9",
  "nodes": null,
  "placements": [
    {
      "seg": "pa:rep/merge",
      "pipeline": "pa",
      "type": "",
      "group": "pa:rep",
      "role": "merge",
      "placed": false
    },
    {
      "seg": "pa:rep/r1",
      "pipeline": "pa",
      "type": "relay",
      "group": "pa:rep",
      "role": "replica",
      "placed": false
    },
    {
      "seg": "pa:rep/r2",
      "pipeline": "pa",
      "type": "relay",
      "group": "pa:rep",
      "role": "replica",
      "placed": false
    },
    {
      "seg": "pa:rep/split",
      "pipeline": "pa",
      "type": "",
      "group": "pa:rep",
      "role": "split",
      "placed": false
    },
    {
      "seg": "pb:seg",
      "pipeline": "pb",
      "type": "extract",
      "placed": false
    }
  ],
  "pipelines": [
    {
      "id": "pa",
      "sink_addr": "127.0.0.1:9",
      "placements": [
        {
          "seg": "pa:rep/merge",
          "pipeline": "pa",
          "type": "",
          "group": "pa:rep",
          "role": "merge",
          "placed": false
        },
        {
          "seg": "pa:rep/r1",
          "pipeline": "pa",
          "type": "relay",
          "group": "pa:rep",
          "role": "replica",
          "placed": false
        },
        {
          "seg": "pa:rep/r2",
          "pipeline": "pa",
          "type": "relay",
          "group": "pa:rep",
          "role": "replica",
          "placed": false
        },
        {
          "seg": "pa:rep/split",
          "pipeline": "pa",
          "type": "",
          "group": "pa:rep",
          "role": "split",
          "placed": false
        }
      ]
    },
    {
      "id": "pb",
      "sink_addr": "127.0.0.1:10",
      "placements": [
        {
          "seg": "pb:seg",
          "pipeline": "pb",
          "type": "extract",
          "placed": false
        }
      ]
    }
  ]
}`
	if string(raw) != golden {
		t.Errorf("status -json drifted from the golden document:\ngot:\n%s\nwant:\n%s", raw, golden)
	}
}
