package river_test

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/river"
	"repro/internal/rivertest"
)

// TestShardedSegmentAutoscaleAndFailover is the acceptance scenario for
// the sharding tentpole: a sharded relay segment boots at K=2, sustained
// saturation (each leg made artificially expensive) scales it out to 4
// with zero repairs, load dropping scales it back in to 2 with zero lost
// records, and killing a node that hosts only a shard leg converges back
// to K legs on distinct live nodes — all while the downstream sink sees
// every record exactly once.
func TestShardedSegmentAutoscaleAndFailover(t *testing.T) {
	c := rivertest.Start(t, river.Config{
		Pipelines:   rivertest.Pipeline(river.SegmentSpec{Name: "work", Type: "relay", Shards: 2}),
		MinNodes:    5,
		DrainSettle: 150 * time.Millisecond,
		Autoscale: river.AutoscaleConfig{
			Enabled: true, Interval: 40 * time.Millisecond,
			LowWater: 0.10, HighWater: 0.50,
			MinShards: 2, MaxShards: 4, Step: 2,
			Cooldown: 700 * time.Millisecond, SustainTicks: 3,
		},
	}, 5)
	if sn := c.Units(river.RoleShard); len(sn) != 2 || rivertest.Distinct(sn) != 2 {
		t.Fatalf("boot shard legs not spread: %v", sn)
	}
	partition, sink := c.Unit(river.RolePartition), c.Sink("")
	throttle := func(d time.Duration) {
		for _, n := range c.Nodes() {
			c.Throttle(n).Set(d)
		}
	}
	legs := func(k int) func(obs.Event) bool {
		return func(e obs.Event) bool { return e.Type == obs.EventLegs && e.Unit == partition && e.Value == float64(k) }
	}
	phase := func(p string) func(obs.Event) bool {
		return func(e obs.Event) bool { return e.Type == obs.EventAutoscale && e.Phase == p }
	}

	// Make each record expensive so the legs' emit queues back up; keys
	// spread so every leg carries traffic (the partitioner hashes
	// SourceID). Sustained saturation must scale the group out to
	// MaxShards with the new legs placed, spliced and on distinct nodes.
	cur := c.Cursor()
	throttle(3 * time.Millisecond)
	load := c.Load(rivertest.LoadSpec{Keys: 13})
	c.WaitEvent(cur, "scale-out to 4 legs", legs(4))
	if sn := c.Units(river.RoleShard); len(sn) != 4 || rivertest.Distinct(sn) != 4 {
		t.Fatalf("scaled-out legs: %v", sn)
	}
	// The event trail must show the breach before the action.
	trig := c.WaitEvent(cur, "autoscale trigger", phase(obs.AsPhaseTriggered))
	if out := c.WaitEvent(cur, "scale-out", phase(obs.AsPhaseScaleOut)); trig.Seq >= out.Seq {
		t.Fatalf("autoscale event trail: triggered seq %d, scale_out seq %d", trig.Seq, out.Seq)
	}

	// Drop the per-record cost: saturation falls below the low water and
	// the group must shrink back to MinShards, flushing the retired legs
	// (the exactly-once audit at the end proves nothing was lost here).
	cur = c.Cursor()
	throttle(0)
	c.WaitEvent(cur, "scale-in back to 2 legs", legs(2))
	c.WaitEvent(cur, "scale_in event", phase(obs.AsPhaseScaleIn))
	if sn := c.Units(river.RoleShard); len(sn) != 2 {
		t.Fatalf("scaled-in legs: %v", sn)
	}

	// Quiesce the stream before the kill: records in flight inside a
	// killed process are gone by design (shards are data-parallel, not
	// redundant), so the zero-loss claim is for the control plane's
	// convergence, not for records the dead node held.
	sink.AwaitReceived(load.Stop())

	// Kill a node hosting only a shard leg, so the death exercises the
	// leg-drop + re-place + splice path alone.
	victim, _ := c.HostingOnly(river.RoleShard)
	killAndReconverge(t, c, victim, river.RolePartition, river.RoleShard, 2)

	// The healed group must carry traffic again. Exactly once across two
	// resizes and a shard-leg death.
	load.Send(500)
	auditExactlyOnce(t, sink, load.End(), "the resizes")

	// Collector telemetry: an ordered lossless run skips nothing and
	// discards nothing as untagged.
	for _, s := range c.Telemetry(river.RoleCollect) {
		if s.Skipped != 0 {
			t.Errorf("collector skipped %d sequence slots", s.Skipped)
		}
		if s.Untagged != 0 {
			t.Errorf("collector discarded %d untagged records", s.Untagged)
		}
	}
}
