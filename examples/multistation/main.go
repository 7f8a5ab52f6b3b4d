// Multistation: demonstrates the multi-pipeline control plane — one
// coordinator maintaining many stations' pipelines over one shared node
// pool. Eight stations each stream through their own relay pipeline
// (p1..p8), placed across four nodes by the load-aware policy; every
// station follows only its own pipeline's entry address. When one node
// is killed, only the pipelines it hosted are re-placed and re-spliced —
// the other stations' entry watches stay silent and their streams never
// move. A ninth pipeline is then added at runtime (the pipeline_add
// verb) and removed again, without restarting anything.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/examples/internal/loopback"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/river"
)

const (
	nStations = 8
	nNodes    = 4
)

// stationStats is one pipeline's end-to-end accounting: records counted
// at its sink, scope repairs observed there, and how many entry updates
// its station's watch received.
type stationStats struct {
	mu       sync.Mutex
	received int
	repairs  int
	updates  atomic.Int32
}

func (s *stationStats) consume(r *record.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch r.Kind {
	case record.KindData:
		s.received++
	case record.KindBadCloseScope:
		s.repairs++
	}
	return nil
}

func (s *stationStats) counts() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received, s.repairs
}

// runStation follows pipeID's entry address and streams numbered records
// through it until ctx is cancelled, re-routing whenever the control
// plane moves the pipeline's first segment.
func runStation(ctx context.Context, coordAddr, pipeID string, st *stationStats) {
	entryCh := make(chan string, 8)
	go func() {
		_ = river.WatchPipelineEntry(ctx, coordAddr, pipeID, func(a string, _ bool) {
			st.updates.Add(1)
			select {
			case entryCh <- a:
			default:
			}
		})
	}()
	var entry string
	select {
	case entry = <-entryCh:
	case <-ctx.Done():
		return
	}
	out := pipeline.NewStreamOutBatched(entry, record.DefaultBatchConfig())
	defer out.Close()
	go func() {
		for {
			select {
			case a := <-entryCh:
				out.Redirect(a)
			case <-ctx.Done():
				return
			}
		}
	}()
	_ = out.Consume(record.NewOpenScope(record.ScopeSession, 0))
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			_ = out.Consume(record.NewCloseScope(record.ScopeSession, 0))
			_ = out.Flush()
			return
		default:
		}
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s([]float64{float64(i)})
		_ = out.Consume(r)
		time.Sleep(2 * time.Millisecond)
	}
}

func main() {
	// One terminal sink per pipeline, so the accounting is per station.
	pipeIDs := make([]string, nStations)
	stats := make(map[string]*stationStats, nStations)
	specs := make([]river.PipelineSpec, nStations)
	var termWG sync.WaitGroup
	for i := range pipeIDs {
		id := fmt.Sprintf("p%d", i+1)
		pipeIDs[i] = id
		st := &stationStats{}
		stats[id] = st
		term, err := pipeline.NewStreamIn("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer term.Close()
		termWG.Add(1)
		go func() {
			defer termWG.Done()
			_ = pipeline.New().SetSource(term).
				SetSink(pipeline.SinkFunc{SinkName: "count", Fn: st.consume}).
				Run(context.Background())
		}()
		specs[i] = river.PipelineSpec{
			ID:       id,
			Segments: []river.SegmentSpec{{Name: "relay", Type: "relay"}},
			SinkAddr: term.Addr(),
		}
	}

	// One coordinator, one shared node pool, one load-aware placer.
	coord, err := river.NewCoordinator(river.Config{
		Pipelines:         specs,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
		MinNodes:          nNodes,
		Placer:            river.LoadAware{},
		Logf:              log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	reg := pipeline.NewRegistry()
	reg.Register("relay", func() []pipeline.Operator { return []pipeline.Operator{pipeline.Relay{}} })
	type liveAgent struct {
		cancel context.CancelFunc
		done   chan error
	}
	agents := map[string]*liveAgent{}
	for i := 1; i <= nNodes; i++ {
		name := fmt.Sprintf("node-%d", i)
		agent := river.NewAgent(name, coord.Addr(), reg)
		agent.ListenHost = loopback.Host(i - 1)
		agent.ReconnectMin = 50 * time.Millisecond
		agent.ReconnectMax = 500 * time.Millisecond
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

	// byNode maps node -> the pipelines it hosts.
	byNode := func(c *river.Coordinator) map[string][]string {
		out := map[string][]string{}
		for _, pl := range c.Status().Pipelines {
			for _, p := range pl.Placements {
				if p.Placed {
					out[p.Node] = append(out[p.Node], pl.ID)
				}
			}
		}
		for _, ids := range out {
			sort.Strings(ids)
		}
		return out
	}
	layout := byNode(coord)
	fmt.Printf("phase 1: %d pipelines placed across %d nodes:\n", nStations, nNodes)
	for i := 1; i <= nNodes; i++ {
		name := fmt.Sprintf("node-%d", i)
		fmt.Printf("  %s hosts %v\n", name, layout[name])
	}

	// Every station streams through its own pipeline.
	stationCtx, stopStations := context.WithCancel(context.Background())
	defer stopStations()
	for _, id := range pipeIDs {
		go runStation(stationCtx, coord.Addr(), id, stats[id])
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		flowing := 0
		for _, id := range pipeIDs {
			if n, _ := stats[id].counts(); n > 0 {
				flowing++
			}
		}
		if flowing == nStations {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("not every station's records reached its sink")
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("phase 1: all %d stations streaming through one coordinator\n", nStations)

	// Phase 2: kill one node mid-stream. Only its pipelines may move.
	victim := fmt.Sprintf("node-%d", nNodes)
	affected := layout[victim]
	updatesBefore := map[string]int32{}
	for _, id := range pipeIDs {
		updatesBefore[id] = stats[id].updates.Load()
	}
	fmt.Printf("phase 2: killing %s (hosts %v) under streaming load\n", victim, affected)
	killedAt := time.Now()
	agents[victim].cancel()
	<-agents[victim].done
	delete(agents, victim)

	deadline = time.Now().Add(10 * time.Second)
	for {
		if after := byNode(coord); len(after[victim]) == 0 {
			placed := 0
			for _, ids := range after {
				placed += len(ids)
			}
			if placed == nStations {
				break
			}
		}
		if time.Now().After(deadline) {
			log.Fatal("coordinator did not re-place the dead node's pipelines")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("phase 2: %v re-placed %.0fms after the kill\n", affected, time.Since(killedAt).Seconds()*1000)

	// Isolation: each affected station's entry watch delivers the new
	// entry — over its own connection, so possibly after Status already
	// shows the placement — and the unaffected stations' watches see
	// nothing.
	isAffected := map[string]bool{}
	for _, id := range affected {
		isAffected[id] = true
	}
	deadline = time.Now().Add(5 * time.Second)
	for _, id := range affected {
		for stats[id].updates.Load() == updatesBefore[id] {
			if time.Now().After(deadline) {
				log.Fatalf("affected pipeline %s never saw its new entry", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, id := range pipeIDs {
		if delta := stats[id].updates.Load() - updatesBefore[id]; !isAffected[id] && delta != 0 {
			log.Fatalf("unaffected pipeline %s saw %d entry update(s); failover must be isolated", id, delta)
		}
	}
	fmt.Printf("phase 2: only the affected stations saw entry updates; the other %d streams never moved\n",
		nStations-len(affected))
	time.Sleep(500 * time.Millisecond)

	// Phase 3: grow the fleet at runtime — a ninth pipeline via the
	// pipeline_add verb, no restart, then remove it again.
	term9, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer term9.Close()
	st9 := &stationStats{}
	stats["p9"] = st9
	termWG.Add(1)
	go func() {
		defer termWG.Done()
		_ = pipeline.New().SetSource(term9).
			SetSink(pipeline.SinkFunc{SinkName: "count", Fn: st9.consume}).
			Run(context.Background())
	}()
	if err := river.RequestPipelineAdd(coord.Addr(), river.PipelineSpec{
		ID:       "p9",
		Segments: []river.SegmentSpec{{Name: "relay", Type: "relay"}},
		SinkAddr: term9.Addr(),
	}, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	go runStation(stationCtx, coord.Addr(), "p9", st9)
	deadline = time.Now().Add(10 * time.Second)
	for {
		if n, _ := st9.counts(); n > 0 {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("runtime-added pipeline never carried a record")
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Println("phase 3: pipeline p9 added at runtime and carrying records")
	if err := river.RequestPipelineRemove(coord.Addr(), "p9", 10*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 3: pipeline p9 removed at runtime")

	// Teardown and report.
	stopStations()
	time.Sleep(200 * time.Millisecond)
	fmt.Printf("\n%-4s %8s %8s %8s\n", "pipe", "records", "repairs", "updates")
	for _, id := range append(append([]string(nil), pipeIDs...), "p9") {
		n, rep := stats[id].counts()
		fmt.Printf("%-4s %8d %8d %8d\n", id, n, rep, stats[id].updates.Load())
		if n == 0 {
			log.Fatalf("pipeline %s delivered nothing", id)
		}
		if !isAffected[id] && id != "p9" && rep != 0 {
			log.Fatalf("unaffected pipeline %s repaired %d scope(s); the node kill must not touch it", id, rep)
		}
	}
	for _, a := range agents {
		a.cancel()
		<-a.done
	}
	coord.Close()
	fmt.Println("\nmultistation: one coordinator, nine pipelines, one node kill — isolated recovery")
}
