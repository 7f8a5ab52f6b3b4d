// Sharding: demonstrates keyed stream sharding with the elastic
// autoscaler — the data-parallel answer to a hot segment. Where
// replication (examples/replication) runs N identical copies for fault
// tolerance, a sharded segment splits the work: a partitioner hashes
// every record's SourceID to one of K parallel shard legs and annotates
// it with a global sequence number, and a collector fans the legs back
// in, restoring the exact input order through the same seq-indexed
// reorder ring the replica merger uses. K is elastic: the coordinator's
// autoscaler watches the legs' queue saturation riding the ordinary
// heartbeats, grows the group under sustained load through the same
// declarative reconcile that places any unit, and shrinks it back when
// the load passes — flushing the retired legs so the resize costs
// nothing. The demo saturates a 2-shard group (every record made
// artificially expensive), watches it scale out to 4, drops the load,
// watches it scale back in, and audits exactly-once delivery across
// both resizes.
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

	// Control plane: one record-preserving relay segment at 2 shards,
	// autoscaling between 2 and 4 on a 0.10..0.50 saturation band. Five
	// nodes so K=4 legs still land on distinct hosts (hard spread). The
	// terminal sink audits exactly-once delivery.
	c := rivertest.Start(t, river.Config{
		Pipelines:         rivertest.Pipeline(river.SegmentSpec{Name: "work", Type: "relay", Shards: 2}),
		HeartbeatInterval: 50 * time.Millisecond,
		MinNodes:          5,
		Autoscale: river.AutoscaleConfig{
			Enabled: true, Interval: 100 * time.Millisecond,
			LowWater: 0.10, HighWater: 0.50,
			MinShards: 2, MaxShards: 4, Step: 2,
			Cooldown: time.Second, SustainTicks: 3,
		},
	}, 5)
	fmt.Println("phase 1: sharded topology placed at K=2")
	for _, p := range c.Coord.Status().Placements {
		fmt.Printf("  %-16s (%s) on %s at %s\n", p.Seg, p.Role, p.Node, p.Addr)
	}
	partition := c.Unit(river.RolePartition)
	waitLegs := func(after uint64, k int, what string) {
		c.WaitEvent(after, what, func(e obs.Event) bool {
			return e.Type == obs.EventLegs && e.Unit == partition && e.Value == float64(k)
		})
	}
	// The load lever: the relays' per-record cost on every node. On, each
	// leg is compute-bound; off, the relay is free.
	throttle := func(d time.Duration) {
		for _, n := range c.Nodes() {
			c.Throttle(n).Set(d)
		}
	}

	// Load: every record costs 3ms of leg time, keys spread across the
	// legs (the keying contract: hash by source), production far above
	// what two legs can drain.
	cur := c.Cursor()
	throttle(3 * time.Millisecond)
	sink := c.Sink("")
	load := c.Load(rivertest.LoadSpec{Keys: 13})
	fmt.Println("phase 2: saturating the 2-shard group (3ms per record per leg)")
	waitLegs(cur, 4, "scale-out")
	fmt.Println("phase 2: autoscaler scaled the group out to K=4")

	// Drop the per-record cost: the group shrinks back to the floor, the
	// removed legs flushing their tails through the retire linger.
	cur = c.Cursor()
	throttle(0)
	fmt.Println("phase 3: load dropped; waiting for scale-in")
	waitLegs(cur, 2, "scale-in")
	fmt.Println("phase 3: autoscaler scaled the group back in to K=2")

	// Stop the stream and wait for every record and the session's close.
	sent := load.End()
	sink.Await("the final drain", func(t rivertest.Tally) bool { return t.Received >= sent && t.Closes > 0 })

	// The autoscale trail from the event stream.
	fmt.Println("\nautoscale event trail:")
	for _, e := range c.Coord.Events().Since(0, nil) {
		switch e.Type {
		case obs.EventAutoscale:
			fmt.Printf("  seq=%-3d autoscale %-10s %s (saturation %.2f)\n", e.Seq, e.Phase, e.Detail, e.Value)
		case obs.EventDrain, obs.EventDrained:
			fmt.Printf("  seq=%-3d %-8s %s (%s)\n", e.Seq, e.Type, e.Unit, e.Detail)
		}
	}

	// Telemetry: the partitioner's spread and the collector's reorder.
	for _, n := range c.Coord.Status().Nodes {
		for _, s := range n.Segments {
			switch s.Role {
			case river.RolePartition:
				fmt.Printf("telemetry: partitioner on %s: legs=%d leg_drops=%d records_out=%d\n",
					n.Name, s.Legs, s.LegDrops, s.RecordsOut)
			case river.RoleCollect:
				fmt.Printf("telemetry: collector on %s: legs=%d dups=%d skipped=%d untagged=%d\n",
					n.Name, s.Legs, s.Dups, s.Skipped, s.Untagged)
			}
		}
	}

	a := sink.Audit(sent)
	fmt.Printf("\naudit: %d records sent, %d missing, %d duplicated, %d scope repairs\n",
		sent, a.Missing, a.Duplicated, a.Repairs)
	if a.Missing != 0 || a.Duplicated != 0 || a.Repairs != 0 {
		log.Fatal("elastic resize lost or duplicated records")
	}
	fmt.Println("both resizes were invisible downstream: every record exactly once, zero repairs")
}
