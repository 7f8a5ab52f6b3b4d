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
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/examples/internal/loopback"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/river"
)

func main() {
	// Registry: replicated segments must be record-preserving, so the
	// replicas run the identity relay.
	reg := pipeline.NewRegistry()
	reg.Register("relay", func() []pipeline.Operator { return []pipeline.Operator{pipeline.Relay{}} })

	// Terminal: verifies exactly-once delivery by indexing payloads.
	terminal, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	// closes counts the session's CloseScope: teardown waits for it, or
	// the terminal's streamin would see EOF mid-session and repair it.
	repairs, closes := 0, 0
	verify := pipeline.SinkFunc{SinkName: "verify", Fn: func(r *record.Record) error {
		mu.Lock()
		defer mu.Unlock()
		switch r.Kind {
		case record.KindData:
			if v, err := r.Float64s(); err == nil && len(v) == 1 {
				seen[int(v[0])]++
			}
		case record.KindCloseScope:
			closes++
		case record.KindBadCloseScope:
			repairs++
		}
		return nil
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = pipeline.New().SetSource(terminal).SetSink(verify).Run(context.Background())
	}()

	// Control plane: one relay segment at 3 replicas, four nodes to host
	// the merger, the replicas (on distinct nodes) and the splitter.
	coord, err := river.NewCoordinator(river.Config{
		Pipelines: []river.PipelineSpec{{
			Segments: []river.SegmentSpec{{Name: "relay", Type: "relay", Replicas: 3}},
			SinkAddr: terminal.Addr(),
		}},
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
		MinNodes:          4,
		Logf:              log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	type liveAgent struct {
		cancel context.CancelFunc
		done   chan error
	}
	agents := map[string]*liveAgent{}
	for i, name := range []string{"host-a", "host-b", "host-c", "host-d"} {
		agent := river.NewAgent(name, coord.Addr(), reg)
		agent.ListenHost = loopback.Host(i)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- agent.Run(ctx) }()
		agents[name] = &liveAgent{cancel: cancel, done: done}
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := coord.WaitPlaced(wctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 1: replicated topology placed")
	endpointNodes := map[string]bool{}
	var replicaByNode []string
	for _, p := range coord.Status().Placements {
		fmt.Printf("  %-12s on %s at %s\n", p.Seg, p.Node, p.Addr)
		switch p.Role {
		case river.RoleSplit, river.RoleMerge:
			endpointNodes[p.Node] = true
		case river.RoleReplica:
			replicaByNode = append(replicaByNode, p.Node)
		}
	}

	// Load: a session scope with a steady numbered record stream, batched.
	out := pipeline.NewStreamOutBatched(coord.EntryAddr(), record.DefaultBatchConfig())
	defer out.Close()
	if err := out.Consume(record.NewOpenScope(record.ScopeSession, 0)); err != nil {
		log.Fatal(err)
	}
	stop := make(chan struct{})
	sentCh := make(chan int, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				sentCh <- i
				return
			default:
			}
			r := record.NewData(record.SubtypeAudio)
			r.SetFloat64s([]float64{float64(i)})
			if err := out.Consume(r); err != nil {
				sentCh <- i
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	received := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seen)
	}
	waitReceived := func(target int, what string) {
		deadline := time.Now().Add(30 * time.Second)
		for received() < target {
			if time.Now().After(deadline) {
				log.Fatalf("stalled waiting for %s: %d of %d records arrived", what, received(), target)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitClosed := func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			n := closes
			mu.Unlock()
			if n > 0 {
				return
			}
			if time.Now().After(deadline) {
				log.Fatal("the session's CloseScope never reached the terminal")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitReceived(1000, "pre-kill load")

	// Phase 2: kill a node hosting only a replica, mid-stream.
	var victim string
	for _, n := range replicaByNode {
		if !endpointNodes[n] {
			victim = n
			break
		}
	}
	fmt.Printf("phase 2: killing replica host %s mid-stream (%d records delivered so far)\n",
		victim, received())
	killedAt := time.Now()
	agents[victim].cancel()
	<-agents[victim].done
	delete(agents, victim)

	// The coordinator drops the dead leg and splices a fresh replica in;
	// wait for three legs again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := coord.Status()
		offVictim := true
		for _, p := range st.Placements {
			if p.Role == river.RoleReplica && (!p.Placed || p.Node == victim) {
				offVictim = false
			}
		}
		legs := 0
		for _, n := range st.Nodes {
			for _, s := range n.Segments {
				if s.Role == river.RoleSplit {
					legs = s.Legs
				}
			}
		}
		if offVictim && legs == 3 {
			fmt.Printf("phase 2: re-converged to 3 replicas %.0fms after the kill\n",
				time.Since(killedAt).Seconds()*1000)
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("coordinator did not re-converge to 3 replicas")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 3: keep streaming through the healed group, then stop and
	// audit.
	waitReceived(received()+1000, "post-kill load")
	close(stop)
	sent := <-sentCh
	if err := out.Consume(record.NewCloseScope(record.ScopeSession, 0)); err != nil {
		log.Fatal(err)
	}
	if err := out.Flush(); err != nil {
		log.Fatal(err)
	}
	waitReceived(sent, "the final drain (records lost?)")
	waitClosed()

	// Telemetry: what the splitter fanned out and the merger deduped.
	for _, n := range coord.Status().Nodes {
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

	// Teardown and audit.
	out.Close()
	for _, a := range agents {
		a.cancel()
		<-a.done
	}
	coord.Close()
	terminal.Close()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	missing, duplicated := 0, 0
	for i := 0; i < sent; i++ {
		switch c := seen[i]; {
		case c == 0:
			missing++
		case c > 1:
			duplicated++
		}
	}
	fmt.Printf("\naudit: %d records sent, %d missing, %d duplicated, %d scope repairs\n",
		sent, missing, duplicated, repairs)
	if missing != 0 || duplicated != 0 || repairs != 0 {
		log.Fatal("zero-loss failover property violated")
	}
	fmt.Println("replica death was invisible downstream: every record exactly once, zero repairs")
}
