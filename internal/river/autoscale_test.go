package river

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// asSample builds a fully-placed, fully-sampled group sample.
func asSample(k int, sat float64) shardGroupSample {
	return shardGroupSample{pipe: "p", group: "p:seg", specIdx: 0, k: k, placed: k, sampled: k, sat: sat}
}

func asTestConfig() AutoscaleConfig {
	return AutoscaleConfig{
		Enabled: true, LowWater: 0.15, HighWater: 0.75,
		MinShards: 1, MaxShards: 8, Step: 2,
		Cooldown: time.Minute, SustainTicks: 3,
	}.withDefaults()
}

// feed pushes n identical samples through decide and returns the last
// decision.
func feed(as *autoscaler, g shardGroupSample, n, drains int, now time.Time) decision {
	var d decision
	for i := 0; i < n; i++ {
		d = as.decide(g, drains, now)
	}
	return d
}

func TestAutoscaleScaleOutAfterSustain(t *testing.T) {
	as := newAutoscaler(asTestConfig())
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if d := as.decide(asSample(2, 0.9), 0, now); d.phase != "" {
			t.Fatalf("tick %d: acted before the sustain window: %+v", i, d)
		}
	}
	d := as.decide(asSample(2, 0.9), 0, now)
	if d.phase != obs.AsPhaseScaleOut || d.target != 4 {
		t.Fatalf("want scale_out to 4, got %+v", d)
	}
	// The counters reset after a decision, and the resize is latched
	// in-flight: another full sustain window suppresses.
	d = feed(as, asSample(2, 0.9), 3, 0, now)
	if d.phase != obs.AsPhaseSuppressed || d.reason != "resize-in-flight" {
		t.Fatalf("want resize-in-flight suppression, got %+v", d)
	}
}

func TestAutoscaleScaleInBoundedByMin(t *testing.T) {
	as := newAutoscaler(asTestConfig())
	now := time.Unix(1000, 0)
	d := feed(as, asSample(4, 0.01), 3, 0, now)
	if d.phase != obs.AsPhaseScaleIn || d.target != 2 {
		t.Fatalf("want scale_in to 2, got %+v", d)
	}
	// At the floor, a sustained low is the calm steady state: no event.
	as2 := newAutoscaler(asTestConfig())
	if d := feed(as2, asSample(1, 0.01), 10, 0, now); d.phase != "" {
		t.Fatalf("K at the floor must stay silent, got %+v", d)
	}
}

func TestAutoscaleSuppressionReasons(t *testing.T) {
	now := time.Unix(1000, 0)

	// Cooldown: a recent resize of the same group blocks the next one.
	as := newAutoscaler(asTestConfig())
	if d := feed(as, asSample(2, 0.9), 3, 0, now); d.phase != obs.AsPhaseScaleOut {
		t.Fatalf("setup scale-out: %+v", d)
	}
	as.resizeDone("p:seg")
	d := feed(as, asSample(4, 0.9), 3, 0, now.Add(10*time.Second))
	if d.phase != obs.AsPhaseSuppressed || d.reason != "cooldown" {
		t.Fatalf("want cooldown suppression, got %+v", d)
	}
	// ...and past the cooldown the same breach scales.
	d = feed(as, asSample(4, 0.9), 3, 0, now.Add(2*time.Minute))
	if d.phase != obs.AsPhaseScaleOut || d.target != 6 {
		t.Fatalf("want scale_out to 6 after cooldown, got %+v", d)
	}

	// Max shards: K at the ceiling cannot grow.
	as = newAutoscaler(asTestConfig())
	d = feed(as, asSample(8, 0.9), 3, 0, now)
	if d.phase != obs.AsPhaseSuppressed || d.reason != "max-shards" {
		t.Fatalf("want max-shards suppression, got %+v", d)
	}

	// Drain in flight: a planned move owns the topology right now.
	as = newAutoscaler(asTestConfig())
	d = feed(as, asSample(2, 0.9), 3, 1, now)
	if d.phase != obs.AsPhaseSuppressed || d.reason != "drain-in-flight" {
		t.Fatalf("want drain-in-flight suppression, got %+v", d)
	}
	// Suppression resets the sustain counters too: the next tick alone
	// must not act (bounds suppressed-event spam to one per window).
	if d = as.decide(asSample(2, 0.9), 0, now); d.phase != "" {
		t.Fatalf("suppression must reset the sustain counters, got %+v", d)
	}
}

func TestAutoscaleIgnoresPartialGroups(t *testing.T) {
	as := newAutoscaler(asTestConfig())
	now := time.Unix(1000, 0)
	g := asSample(4, 0.9)
	g.placed = 3 // one leg mid-placement
	if d := feed(as, g, 10, 0, now); d.phase != "" {
		t.Fatalf("partially placed group must not be scaled, got %+v", d)
	}
	g = asSample(4, 0.9)
	g.sampled = 2 // two legs not reporting telemetry yet
	if d := feed(as, g, 10, 0, now); d.phase != "" {
		t.Fatalf("partially sampled group must not be scaled, got %+v", d)
	}
}

func TestAutoscaleConfigValidate(t *testing.T) {
	if err := (AutoscaleConfig{LowWater: 0.8, HighWater: 0.5}).validate(); err == nil {
		t.Error("inverted band must not validate")
	}
	if err := (AutoscaleConfig{MinShards: 6, MaxShards: 2}).validate(); err == nil {
		t.Error("min above max must not validate")
	}
	if err := (AutoscaleConfig{HighWater: 1.5}).validate(); err == nil {
		t.Error("saturation above 1 must not validate")
	}
	if err := (AutoscaleConfig{MaxShards: maxGroupWidth + 1}).validate(); err == nil {
		t.Error("max shards above the group width cap must not validate")
	}
	if err := (AutoscaleConfig{MaxShards: maxGroupWidth}).validate(); err != nil {
		t.Errorf("max shards at the cap must validate: %v", err)
	}
	if err := (AutoscaleConfig{}).validate(); err != nil {
		t.Errorf("zero config must validate via defaults: %v", err)
	}
}

// TestExpandSpecShards pins the sharded unit layout and the live resize
// surgery: collect first (placed before the legs that dial it), then the
// K legs, then the partitioner last (topology order mirrors the replica
// group layout).
func TestExpandSpecShards(t *testing.T) {
	sp := SegmentSpec{Name: "seg", Type: "relay", Shards: 2}
	us := expandSpec("p", sp)
	want := []string{"p:seg/collect", "p:seg/s1", "p:seg/s2", "p:seg/partition"}
	if len(us) != len(want) {
		t.Fatalf("units: %+v", us)
	}
	for i, u := range us {
		if u.name != want[i] {
			t.Fatalf("unit %d = %q, want %q", i, u.name, want[i])
		}
	}
	if us[0].role != RoleCollect || us[1].role != RoleShard || us[3].role != RolePartition {
		t.Fatalf("roles: %+v", us)
	}
	if us[1].typ != "relay" || us[0].typ != "" {
		t.Fatalf("types: %+v", us)
	}

	k4 := expandSpecK("p", sp, 4)
	if len(k4) != 6 || k4[4].name != "p:seg/s4" {
		t.Fatalf("K=4 units: %+v", k4)
	}
}
