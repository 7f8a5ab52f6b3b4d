package river

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// RemediateConfig parameterizes the coordinator's remediation policy: the
// act-on-it half of the self-observing pipeline. When the monitor flags a
// node anomalous, the policy pre-emptively drains that node's units to
// healthy hosts — the same zero-repair planned move an operator would run
// by hand, but triggered by the anomaly event instead of a page.
type RemediateConfig struct {
	// Mode selects what an anomaly triggers: "observe" (default) records
	// a suppressed remediation event and does nothing; "drain" executes a
	// pre-emptive drain of the flagged node's drainable units.
	Mode string
	// DryRun, with Mode "drain", walks the full policy — triggered events,
	// guardrails, cooldown stamping — but suppresses the drains themselves,
	// so the decision stream can be audited before the lever is real.
	DryRun bool
	// Cooldown is the minimum spacing between remediation attempts against
	// the same node (default 60s), so one sustained degradation becomes
	// one move, not a move per anomaly tick.
	Cooldown time.Duration
	// MaxConcurrent bounds simultaneously remediating nodes (default 1):
	// draining half the cluster at once because everything looked slow for
	// a moment would be worse than the slowness.
	MaxConcurrent int
}

func (rc RemediateConfig) withDefaults() RemediateConfig {
	if rc.Mode == "" {
		rc.Mode = RemediateObserve
	}
	if rc.Cooldown <= 0 {
		rc.Cooldown = time.Minute
	}
	if rc.MaxConcurrent <= 0 {
		rc.MaxConcurrent = 1
	}
	return rc
}

// Remediation modes.
const (
	RemediateObserve = "observe"
	RemediateDrain   = "drain"
)

func (rc RemediateConfig) validate() error {
	switch rc.Mode {
	case "", RemediateObserve, RemediateDrain:
		return nil
	}
	return fmt.Errorf("river: remediation mode %q (want %q or %q)", rc.Mode, RemediateObserve, RemediateDrain)
}

// remediator holds the policy's mutable guardrail state.
type remediator struct {
	cfg RemediateConfig

	mu       sync.Mutex
	lastTry  map[string]time.Time // node -> last remediation attempt
	inflight map[string]bool      // nodes with a remediation drain running
}

// remediateLoop consumes the coordinator's own anomaly events and applies
// the remediation policy to each. It runs under the coordinator waitgroup
// until Close. The subscription queue is bounded like any other event
// subscriber; a drop only delays remediation until the next anomaly tick,
// and is counted on dynriver_events_dropped_total{subscriber="remediation"}.
func (c *Coordinator) remediateLoop() {
	defer c.wg.Done()
	sub := c.events.Subscribe(64)
	sub.DropCounter = c.reg.Counter("dynriver_events_dropped_total", "subscriber", "remediation")
	defer c.events.Unsubscribe(sub)
	for {
		select {
		case <-c.ctx.Done():
			return
		case e := <-sub.C:
			if e.Type != obs.EventAnomaly || e.Node == "" {
				continue
			}
			c.remediateAnomaly(e)
		}
	}
}

// remediateAnomaly runs the policy for one anomaly event: guardrails
// first, then — in drain mode, outside dry-run — the pre-emptive drain of
// the node's drainable units on its own goroutine. Every decision is
// emitted as a typed remediation event, so `dynriver events` shows the
// loop closing (or declining to).
func (c *Coordinator) remediateAnomaly(e obs.Event) {
	r := c.rem
	node := e.Node
	now := time.Now()
	r.mu.Lock()
	if last, ok := r.lastTry[node]; ok && now.Sub(last) < r.cfg.Cooldown {
		r.mu.Unlock()
		c.event(obs.Event{Type: obs.EventRemediation, Phase: obs.RemPhaseSuppressed,
			Node: node, Metric: e.Metric, Detail: "cooldown"})
		return
	}
	if r.inflight[node] {
		r.mu.Unlock()
		c.event(obs.Event{Type: obs.EventRemediation, Phase: obs.RemPhaseSuppressed,
			Node: node, Metric: e.Metric, Detail: "drain-in-flight"})
		return
	}
	if len(r.inflight) >= r.cfg.MaxConcurrent {
		r.mu.Unlock()
		c.event(obs.Event{Type: obs.EventRemediation, Phase: obs.RemPhaseSuppressed,
			Node: node, Metric: e.Metric, Detail: "max-concurrent"})
		return
	}
	// The attempt counts against the cooldown whatever happens next, so a
	// flapping series cannot spam triggered events either.
	r.lastTry[node] = now
	r.mu.Unlock()

	c.event(obs.Event{Type: obs.EventRemediation, Phase: obs.RemPhaseTriggered,
		Node: node, Metric: e.Metric, Value: e.Value, Score: e.Score,
		Detail: fmt.Sprintf("anomaly on %s", e.Metric)})

	if r.cfg.Mode != RemediateDrain {
		c.event(obs.Event{Type: obs.EventRemediation, Phase: obs.RemPhaseSuppressed,
			Node: node, Metric: e.Metric, Detail: "mode=observe"})
		return
	}
	units := c.drainableUnits(node)
	if len(units) == 0 {
		c.event(obs.Event{Type: obs.EventRemediation, Phase: obs.RemPhaseSuppressed,
			Node: node, Metric: e.Metric, Detail: "no drainable units"})
		return
	}
	if r.cfg.DryRun {
		c.event(obs.Event{Type: obs.EventRemediation, Phase: obs.RemPhaseSuppressed,
			Node: node, Metric: e.Metric,
			Detail: "dry-run: would drain " + strings.Join(units, " ")})
		return
	}

	r.mu.Lock()
	r.inflight[node] = true
	r.mu.Unlock()
	c.event(obs.Event{Type: obs.EventRemediation, Phase: obs.RemPhaseStarted,
		Node: node, Metric: e.Metric, Value: float64(len(units)),
		Detail: "draining " + strings.Join(units, " ")})
	c.logf("remediation: draining %d unit(s) off anomalous node %s: %v", len(units), node, units)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer func() {
			r.mu.Lock()
			delete(r.inflight, node)
			r.mu.Unlock()
		}()
		var failed []string
		for _, u := range units {
			if c.ctx.Err() != nil {
				return
			}
			if err := c.Drain(u); err != nil {
				failed = append(failed, u)
				c.logf("remediation: drain %s off %s: %v", u, node, err)
			}
		}
		done := obs.Event{Type: obs.EventRemediation, Phase: obs.RemPhaseCompleted,
			Node: node, Metric: e.Metric, Value: float64(len(units) - len(failed))}
		if len(failed) > 0 {
			done.Detail = fmt.Sprintf("%d/%d drained; failed: %s",
				len(units)-len(failed), len(units), strings.Join(failed, " "))
		} else {
			done.Detail = fmt.Sprintf("%d unit(s) drained", len(units))
		}
		c.event(done)
		c.logf("remediation of node %s complete: %s", node, done.Detail)
	}()
}

// drainableUnits lists the units placed on node that Drain accepts —
// everything except fan-in/fan-out endpoints, which must be moved via
// their legs — in deterministic order.
func (c *Coordinator) drainableUnits(node string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for name, p := range c.st.placements {
		if p.node == node && !KindOf(p.u.role).Endpoint() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
