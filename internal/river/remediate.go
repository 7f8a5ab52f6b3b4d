package river

import (
	"fmt"
	"sort"
	"strings"
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

// remediator holds the policy's guardrail state.
type remediator struct {
	cfg      RemediateConfig
	lastTry  map[string]time.Time // node -> last remediation attempt
	inflight map[string]bool      // nodes with a remediation drain running
}

// remediate runs the policy for one anomaly event: guardrails first, then
// — in drain mode, outside dry-run — pre-emptive drains of the node's
// drainable units, one after another. Every decision is emitted as a typed
// remediation event, so `dynriver events` shows the loop closing (or
// declining to).
func (k *core) remediate(e obs.Event) {
	r, node := &k.rem, e.Node
	suppress := func(detail string) {
		k.event(obs.Event{Type: obs.EventRemediation, Phase: obs.RemPhaseSuppressed,
			Node: node, Metric: e.Metric, Detail: detail})
	}
	if last, ok := r.lastTry[node]; ok && k.now.Sub(last) < r.cfg.Cooldown {
		suppress("cooldown")
		return
	}
	if r.inflight[node] {
		suppress("drain-in-flight")
		return
	}
	if len(r.inflight) >= r.cfg.MaxConcurrent {
		suppress("max-concurrent")
		return
	}
	// The attempt counts against the cooldown whatever happens next, so a
	// flapping series cannot spam triggered events either.
	r.lastTry[node] = k.now
	k.event(obs.Event{Type: obs.EventRemediation, Phase: obs.RemPhaseTriggered,
		Node: node, Metric: e.Metric, Value: e.Value, Score: e.Score,
		Detail: fmt.Sprintf("anomaly on %s", e.Metric)})
	units := k.drainableUnits(node)
	switch {
	case r.cfg.Mode != RemediateDrain:
		suppress("mode=observe")
		return
	case len(units) == 0:
		suppress("no drainable units")
		return
	case r.cfg.DryRun:
		suppress("dry-run: would drain " + strings.Join(units, " "))
		return
	}
	r.inflight[node] = true
	k.event(obs.Event{Type: obs.EventRemediation, Phase: obs.RemPhaseStarted,
		Node: node, Metric: e.Metric, Value: float64(len(units)),
		Detail: "draining " + strings.Join(units, " ")})
	k.logf("remediation: draining %d unit(s) off anomalous node %s: %v", len(units), node, units)
	var failed []string
	var next func(i int)
	next = func(i int) {
		if i < len(units) {
			k.drain(units[i], func(err error) {
				if err != nil {
					failed = append(failed, units[i])
					k.logf("remediation: drain %s off %s: %v", units[i], node, err)
				}
				next(i + 1)
			})
			return
		}
		delete(r.inflight, node)
		done := obs.Event{Type: obs.EventRemediation, Phase: obs.RemPhaseCompleted,
			Node: node, Metric: e.Metric, Value: float64(len(units) - len(failed)),
			Detail: fmt.Sprintf("%d unit(s) drained", len(units))}
		if len(failed) > 0 {
			done.Detail = fmt.Sprintf("%d/%d drained; failed: %s",
				len(units)-len(failed), len(units), strings.Join(failed, " "))
		}
		k.event(done)
		k.logf("remediation of node %s complete: %s", node, done.Detail)
	}
	next(0)
}

// drainableUnits lists the units placed on node that a drain accepts —
// everything except fan-in/fan-out endpoints, which must be moved via
// their legs — in deterministic order.
func (k *core) drainableUnits(node string) []string {
	var out []string
	for name, p := range k.st.placements {
		if p.node == node && !KindOf(p.u.role).Endpoint() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
