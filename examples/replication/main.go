// Replication: demonstrates the zero-loss failover subsystem — a hot
// segment running as three replicas behind a splitter/merger pair. The
// splitter tags every record with a sequence number and fans the stream
// out to all three replica hosts; the merger deduplicates the copies back
// into exactly-once output. When one replica node is killed mid-stream
// the coordinator simply drops the dead leg and splices a re-placed
// replica in: the downstream sink receives every record exactly once —
// no gaps, no duplicates, and (unlike plain recomposition, see
// examples/recomposition) no scope repair at all.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/obs"
	"repro/internal/river"
	"repro/internal/rivertest"
)

func main() {
	t := &rivertest.Main{}
	defer t.Close()

	// Control plane: one relay segment (record-preserving, as replicated
	// segments must be) at 3 replicas, four nodes to host the merger, the
	// replicas (on distinct nodes) and the splitter. The terminal sink
	// audits exactly-once delivery.
	c := rivertest.Start(t, river.Config{
		Pipelines: rivertest.Pipeline(river.SegmentSpec{Name: "relay", Type: "relay", Replicas: 3}),
		MinNodes:  4,
	}, 4)
	fmt.Println("phase 1: replicated topology placed")
	for _, p := range c.Coord.Status().Placements {
		fmt.Printf("  %-12s on %s at %s\n", p.Seg, p.Node, p.Addr)
	}

	// Load: a session scope with a steady numbered record stream, batched.
	sink := c.Sink("")
	load := c.Load(rivertest.LoadSpec{})
	sink.AwaitReceived(1000)

	// Phase 2: kill a node hosting only a replica, mid-stream. The
	// coordinator drops the dead leg and splices a fresh replica in; wait
	// for three legs again.
	victim, _ := c.HostingOnly(river.RoleReplica)
	fmt.Printf("phase 2: killing replica host %s mid-stream (%d records delivered so far)\n",
		victim, sink.Tally().Received)
	split, cur, killedAt := c.Unit(river.RoleSplit), c.Cursor(), time.Now()
	c.Kill(victim)
	c.WaitEvent(cur, "three legs again", func(e obs.Event) bool {
		return e.Type == obs.EventLegs && e.Unit == split && e.Value == 3
	})
	fmt.Printf("phase 2: re-converged to 3 replicas %.0fms after the kill\n", time.Since(killedAt).Seconds()*1000)

	// Phase 3: keep streaming through the healed group, then stop, and
	// wait for every record and the session's CloseScope (tearing down
	// before it arrives would make the sink repair the cut session).
	sink.AwaitMore(1000)
	sent := load.End()
	sink.Await("the final drain", func(t rivertest.Tally) bool { return t.Received >= sent && t.Closes > 0 })

	// Telemetry: what the splitter fanned out and the merger deduped.
	for _, n := range c.Coord.Status().Nodes {
		for _, s := range n.Segments {
			switch s.Role {
			case river.RoleSplit:
				fmt.Printf("telemetry: splitter on %s: legs=%d leg_drops=%d records_out=%d\n",
					n.Name, s.Legs, s.LegDrops, s.RecordsOut)
			case river.RoleMerge:
				fmt.Printf("telemetry: merger on %s: legs=%d dups=%d skipped=%d untagged=%d\n",
					n.Name, s.Legs, s.Dups, s.Skipped, s.Untagged)
			}
		}
	}

	a := sink.Audit(sent)
	fmt.Printf("\naudit: %d records sent, %d missing, %d duplicated, %d scope repairs\n",
		sent, a.Missing, a.Duplicated, a.Repairs)
	if a.Missing != 0 || a.Duplicated != 0 || a.Repairs != 0 {
		log.Fatal("zero-loss failover property violated")
	}
	fmt.Println("replica death was invisible downstream: every record exactly once, zero repairs")
}
