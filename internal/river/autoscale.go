package river

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
)

// The shard autoscaler closes the elasticity loop for sharded segments:
// the heartbeats already carry every shard leg's emit-queue depth and
// bound, so the coordinator can see a group saturate (CPU-bound legs
// whose queues sit near their caps) and widen it — or see it idle and
// narrow it — without any operator in the loop. A resize is a unit-table
// rewrite (state.setShardK, journaled) followed by the ordinary
// declarative reconcile: new legs are placed and spliced into the
// partitioner exactly like a failover re-splice, removed legs are
// retired (the partitioner flushes their queues through the old
// instances) and stopped after a settle — zero repairs, zero lost
// records, the same drain splice a planned move uses.

// AutoscaleConfig parameterizes the coordinator's shard autoscaler.
type AutoscaleConfig struct {
	// Enabled turns the autoscaler on; the zero value leaves sharded
	// segments at their spec K.
	Enabled bool
	// Interval is the evaluation cadence (default 500ms).
	Interval time.Duration
	// LowWater and HighWater bound the target saturation band: a group's
	// saturation (shard-leg queue depth summed over legs, divided by the
	// summed queue caps) sustained above HighWater scales out, sustained
	// below LowWater scales in. Defaults 0.15 and 0.75.
	LowWater  float64
	HighWater float64
	// MinShards and MaxShards bound the live K (defaults 1 and 8). The
	// spec's boot K may start outside the band; the autoscaler only ever
	// moves K toward it.
	MinShards int
	MaxShards int
	// Step is how many shards one resize adds or removes (default 2).
	Step int
	// Cooldown is the minimum gap between resizes of one group (default
	// 10s), so a burst cannot thrash K up and down.
	Cooldown time.Duration
	// SustainTicks is how many consecutive evaluation ticks the
	// saturation must breach the band before the autoscaler acts
	// (default 4), filtering transient spikes.
	SustainTicks int
}

func (c AutoscaleConfig) withDefaults() AutoscaleConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.LowWater <= 0 {
		c.LowWater = 0.15
	}
	if c.HighWater <= 0 {
		c.HighWater = 0.75
	}
	if c.MinShards < 1 {
		c.MinShards = 1
	}
	if c.MaxShards < 1 {
		c.MaxShards = 8
	}
	if c.Step < 1 {
		c.Step = 2
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * time.Second
	}
	if c.SustainTicks < 1 {
		c.SustainTicks = 4
	}
	return c
}

func (c AutoscaleConfig) validate() error {
	c = c.withDefaults()
	if c.LowWater >= c.HighWater {
		return fmt.Errorf("river: autoscale low water %.2f must be below high water %.2f", c.LowWater, c.HighWater)
	}
	if c.HighWater > 1 {
		return errors.New("river: autoscale high water is a saturation fraction; must be <= 1")
	}
	if c.MinShards > c.MaxShards {
		return fmt.Errorf("river: autoscale min shards %d above max %d", c.MinShards, c.MaxShards)
	}
	if c.MaxShards > maxGroupWidth {
		return fmt.Errorf("river: autoscale max shards %d above the cap of %d", c.MaxShards, maxGroupWidth)
	}
	return nil
}

// autoscaler holds the per-group guardrail state.
type autoscaler struct {
	cfg       AutoscaleConfig
	next      time.Time            // next evaluation
	above     map[string]int       // consecutive ticks above HighWater
	below     map[string]int       // consecutive ticks below LowWater
	lastScale map[string]time.Time // per-group cooldown anchor
	inflight  map[string]bool      // a resize of this group is executing
}

func newAutoscaler(cfg AutoscaleConfig) *autoscaler {
	return &autoscaler{
		cfg:       cfg,
		above:     make(map[string]int),
		below:     make(map[string]int),
		lastScale: make(map[string]time.Time),
		inflight:  make(map[string]bool),
	}
}

// shardGroupSample is one sharded group's state at an evaluation tick.
type shardGroupSample struct {
	pipe    string
	group   string // scoped group name
	specIdx int
	k       int     // live K per the unit tables
	placed  int     // shard legs currently placed
	sampled int     // shard legs with queue telemetry this tick
	sat     float64 // sum(queue depth) / sum(queue cap) over sampled legs
}

// decision is what one evaluation tick concluded for one group.
type decision struct {
	target   int    // new K (scale decisions only)
	phase    string // "", obs.AsPhaseScaleOut, obs.AsPhaseScaleIn, obs.AsPhaseSuppressed
	reason   string // suppression reason
	scaleOut bool
}

// decide folds one group sample into the sustain counters and returns
// what to do. drains is the coordinator's count of planned drains in
// flight. After any decision — a resize or a suppression — the group's
// counters reset, so the next action needs a fresh sustained breach;
// that turns a standing suppression condition (K pinned at a bound, a
// long cooldown) into one event per sustain window instead of one per
// tick.
func (as *autoscaler) decide(g shardGroupSample, drains int, now time.Time) decision {
	if g.placed < g.k || g.sampled < g.placed {
		// Legs still placing, splicing or not yet reporting telemetry:
		// saturation over a partial group misleads both directions.
		as.above[g.group], as.below[g.group] = 0, 0
		return decision{}
	}
	switch {
	case g.sat > as.cfg.HighWater:
		as.above[g.group]++
		as.below[g.group] = 0
	case g.sat < as.cfg.LowWater:
		as.below[g.group]++
		as.above[g.group] = 0
	default:
		as.above[g.group], as.below[g.group] = 0, 0
	}
	out := as.above[g.group] >= as.cfg.SustainTicks
	in := as.below[g.group] >= as.cfg.SustainTicks
	if !out && !in {
		return decision{}
	}
	as.above[g.group], as.below[g.group] = 0, 0
	if in && g.k <= as.cfg.MinShards {
		// The calm steady state at the floor: not worth an event stream
		// entry every sustain window.
		return decision{}
	}
	d := decision{scaleOut: out}
	switch {
	case out && g.k >= as.cfg.MaxShards:
		d.phase, d.reason = obs.AsPhaseSuppressed, "max-shards"
	case as.inflight[g.group]:
		d.phase, d.reason = obs.AsPhaseSuppressed, "resize-in-flight"
	case drains > 0:
		d.phase, d.reason = obs.AsPhaseSuppressed, "drain-in-flight"
	case now.Sub(as.lastScale[g.group]) < as.cfg.Cooldown:
		d.phase, d.reason = obs.AsPhaseSuppressed, "cooldown"
	case out:
		d.phase = obs.AsPhaseScaleOut
		d.target = min(g.k+as.cfg.Step, as.cfg.MaxShards)
	default:
		d.phase = obs.AsPhaseScaleIn
		d.target = max(g.k-as.cfg.Step, as.cfg.MinShards)
	}
	if d.target != 0 {
		as.lastScale[g.group] = now
		as.inflight[g.group] = true
	}
	return d
}

// resizeDone releases a group's in-flight latch.
func (as *autoscaler) resizeDone(group string) { delete(as.inflight, group) }

// autoscale evaluates every sharded group when the interval is due,
// sampling saturation from the latest heartbeats, and applies the
// autoscaler's decisions.
func (k *core) autoscale() {
	if !k.as.cfg.Enabled || !due(&k.as.next, k.now, k.as.cfg.Interval) {
		return
	}
	drains := len(k.drainQ)
	if k.draining {
		drains++
	}
	for _, g := range k.sampleShardGroups() {
		d := k.as.decide(g, drains, k.now)
		if d.phase == "" {
			continue
		}
		dir := "below low water"
		if d.scaleOut {
			dir = "above high water"
		}
		ev := obs.Event{Type: obs.EventAutoscale, Pipeline: g.pipe, Unit: g.group,
			Metric: "saturation", Value: g.sat, Phase: obs.AsPhaseTriggered,
			Detail: fmt.Sprintf("K=%d sustained %s", g.k, dir)}
		k.event(ev)
		if d.phase == obs.AsPhaseSuppressed {
			ev.Phase, ev.Detail = d.phase, d.reason
			k.event(ev)
			k.logf("autoscale %s suppressed: %s (saturation %.2f, K=%d)", g.group, d.reason, g.sat, g.k)
			continue
		}
		ev.Phase, ev.Detail = d.phase, fmt.Sprintf("K %d -> %d", g.k, d.target)
		k.event(ev)
		k.logf("autoscale %s: %s K %d -> %d (saturation %.2f)", g.group, d.phase, g.k, d.target, g.sat)
		k.resizeShardGroup(g, d.target)
	}
}

// sampleShardGroups extracts every sharded group's current K, placement
// progress and leg saturation.
func (k *core) sampleShardGroups() []shardGroupSample {
	stats := make(map[string]SegmentStatus)
	for _, m := range k.nodes {
		for _, st := range m.stats {
			stats[st.Name] = st
		}
	}
	var out []shardGroupSample
	for _, id := range k.st.order {
		ps := k.st.pipelines[id]
		for i, sp := range ps.spec.Segments {
			if sp.Shards <= 1 {
				continue
			}
			us := ps.unitsBySpec[i]
			g := shardGroupSample{pipe: id, group: scopedName(id, sp.Name), specIdx: i, k: len(us) - 2}
			var depth, cap int
			for _, u := range us[1 : len(us)-1] { // the shard legs
				p := k.st.placements[u.name]
				if p.node == "" {
					continue
				}
				g.placed++
				st, ok := stats[u.name]
				if !ok || st.QueueCap <= 0 || st.Addr != p.addr {
					continue
				}
				g.sampled++
				depth += st.QueueDepth
				cap += st.QueueCap
			}
			if cap > 0 {
				g.sat = float64(depth) / float64(cap)
			}
			out = append(out, g)
		}
	}
	return out
}

// resizeShardGroup applies one resize decision: rewrite the unit tables
// (journaled) and let reconcile place new legs and re-splice the
// partitioner. A scale-in stops the surplus instances only after the
// partitioner has been spliced off them and their tails have settled
// through to the collector, so the shrink repairs zero scopes and loses
// zero records; the group's in-flight latch holds until then.
func (k *core) resizeShardGroup(g shardGroupSample, target int) {
	ps := k.st.pipelines[g.pipe]
	removed := k.st.setShardK(ps, g.specIdx, target)
	k.kicked = true
	if len(removed) == 0 {
		k.as.resizeDone(g.group)
		return
	}
	olds := make([]retiree, len(removed))
	for i, r := range removed {
		ev := obs.Event{Type: obs.EventDrain, Pipeline: g.pipe, Unit: r.u.name,
			Node: r.node, Detail: "autoscale scale-in"}
		k.event(ev)
		ev.Type = obs.EventDrained
		olds[i] = retiree{node: r.node, unit: r.u.name, addr: r.addr, drained: ev}
	}
	group := ps.unitsBySpec[g.specIdx]
	k.retire(group[len(group)-1].name, k.cfg.DrainSettle, olds, func() { k.as.resizeDone(g.group) })
}
