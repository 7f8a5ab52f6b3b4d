package river_test

import (
	"testing"

	"repro/internal/river"
	"repro/internal/rivertest"
)

// TestReplicatedSegmentFailover is the acceptance scenario for the
// replication subsystem: a 3-replica relay segment under sustained
// batched load, one replica node killed mid-stream. The downstream sink
// must receive every record exactly once — no gaps, no duplicates, no
// scope repair — and the coordinator must converge back to 3 replicas on
// distinct live nodes by re-placing the lost one and splicing its leg
// into the splitter.
func TestReplicatedSegmentFailover(t *testing.T) {
	c := rivertest.Start(t, river.Config{
		Pipelines: rivertest.Pipeline(river.SegmentSpec{Name: "relay", Type: "relay", Replicas: 3}),
		MinNodes:  4,
	}, 4)
	// Replicas must start on three distinct nodes.
	if rn := c.Units(river.RoleReplica); len(rn) != 3 || rivertest.Distinct(rn) != 3 {
		t.Fatalf("replicas placed: %v", rn)
	}
	sink := c.Sink("")
	load := c.Load(rivertest.LoadSpec{})
	sink.AwaitReceived(300)

	// Kill a node hosting only a replica (not the splitter/merger), so
	// the death exercises the leg-drop path alone.
	victim, _ := c.HostingOnly(river.RoleReplica)
	killAndReconverge(t, c, victim, river.RoleSplit, river.RoleReplica, 3)

	// Keep the load flowing through the healed group, then stop cleanly.
	sink.AwaitMore(300)
	auditExactlyOnce(t, sink, load.End(), "the replica death")

	// Merger telemetry must show the dedup did real work.
	merges := c.Telemetry(river.RoleMerge)
	if len(merges) == 0 {
		t.Error("no merger telemetry in heartbeats")
	}
	for _, s := range merges {
		if s.Dups == 0 {
			t.Error("merger reported zero duplicates under 3-way replication")
		}
	}
}
