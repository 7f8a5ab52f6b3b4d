package river

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkReconcileManyPipelines measures the core's steady-state tick
// as the pipeline registry grows: one tick (heartbeat expiry check plus a
// reconcile pass with every unit placed and converged, nothing to send)
// over 1, 8 and 64 two-segment pipelines sharing an 8-node pool. This is
// the control plane's hot loop — every periodic pass is one — so its cost
// bounds how many stations one coordinator can serve. No Coordinator,
// socket or lock is involved: the core is driven directly.
func BenchmarkReconcileManyPipelines(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("pipelines-%d", n), func(b *testing.B) {
			specs := make([]PipelineSpec, n)
			for i := range specs {
				specs[i] = PipelineSpec{
					ID: fmt.Sprintf("p%03d", i),
					Segments: []SegmentSpec{
						{Name: "front", Type: "relay"},
						{Name: "back", Type: "relay"},
					},
					SinkAddr: "127.0.0.1:9",
				}
			}
			st, _, err := newState("", specs, func(string, ...any) {})
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{Pipelines: specs, Monitor: MonitorConfig{Disabled: true}}.withDefaults()
			now := time.Unix(1000, 0)
			k := newCore(cfg, st, false, now)

			// Register an 8-node pool and place every unit in its converged
			// position, so each measured tick is the steady-state table walk
			// (no assigns, no redirects).
			const pool = 8
			for i := 0; i < pool; i++ {
				k.step(inRegister{sess: uint64(i + 1), node: fmt.Sprintf("node-%d", i)})
			}
			for i, id := range st.order {
				ps := st.pipelines[id]
				back := st.placements[ps.units[1].name]
				back.node = fmt.Sprintf("node-%d", (2*i)%pool)
				back.addr = fmt.Sprintf("127.0.0.1:%d", 20000+2*i)
				back.down = ps.spec.SinkAddr
				front := st.placements[ps.units[0].name]
				front.node = fmt.Sprintf("node-%d", (2*i+1)%pool)
				front.addr = fmt.Sprintf("127.0.0.1:%d", 20001+2*i)
				front.down = back.addr
				ps.entryAddr = front.addr
			}
			pass := max(cfg.HeartbeatTimeout/4, 5*time.Millisecond)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Heartbeats keep the pool alive; each tick is due a pass.
				now = now.Add(pass)
				for _, m := range k.nodes {
					m.lastBeat = now
				}
				if acts := k.step(inTick{now: now}); len(acts) != 0 {
					b.Fatalf("steady-state tick acted: %+v", acts[0])
				}
			}
			b.ReportMetric(float64(2*n), "units/pass")
		})
	}
}
