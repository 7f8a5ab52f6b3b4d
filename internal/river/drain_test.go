package river_test

import (
	"testing"
	"time"

	"repro/internal/river"
	"repro/internal/rivertest"
)

// TestPlannedDrainZeroRepairs is the planned-drain acceptance: an
// operator-initiated move of a mid-chain segment while scoped clips are
// streaming must repair zero scopes — unlike a failover, which cuts the
// stream mid-scope — and lose no records. The splice happens at a
// top-level scope boundary; the old instance's stream ends cleanly.
func TestPlannedDrainZeroRepairs(t *testing.T) {
	c := rivertest.Start(t, river.Config{
		Pipelines:   rivertest.Pipeline(river.SegmentSpec{Name: "first", Type: "relay"}, river.SegmentSpec{Name: "second", Type: "relay"}),
		DrainSettle: 150 * time.Millisecond,
		Placer:      &river.Spread{},
		MinNodes:    3,
	}, 3)
	sink := c.Sink("")
	// Clip scopes stream continuously: open, ten data records, close.
	load := c.Load(rivertest.LoadSpec{Pace: 500 * time.Microsecond, Clip: 10})
	sink.AwaitReceived(100)

	// The operator-initiated move, mid-stream.
	oldNode := c.Placement("second").Node
	if err := c.Coord.Drain("second"); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if p := c.Placement("second"); !p.Placed || p.Node == oldNode {
		t.Fatalf("drain left second on %s: %+v", oldNode, p)
	}
	// Traffic keeps flowing through the moved instance.
	sink.AwaitMore(100)
	auditExactlyOnce(t, sink, load.End(), "the drain")
}

// TestDrainRejectsBadTargets covers the drain guard rails: unknown units,
// unplaced units and replication endpoints are refused.
func TestDrainRejectsBadTargets(t *testing.T) {
	coord, err := river.NewCoordinator(river.Config{
		Pipelines: []river.PipelineSpec{{
			Segments: []river.SegmentSpec{{Name: "seg", Type: "relay", Replicas: 2}},
			SinkAddr: "127.0.0.1:9",
		}},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Drain("nope"); err == nil {
		t.Error("drain of an unknown unit accepted")
	}
	if err := coord.Drain("seg/r1"); err == nil {
		t.Error("drain of an unplaced unit accepted")
	}
	for _, unit := range []string{"seg/split", "seg/merge"} {
		if err := coord.Drain(unit); err == nil {
			t.Errorf("drain of endpoint %s accepted", unit)
		}
	}
}
