// Command dynriver runs Dynamic River pipeline stages as networked
// processes, demonstrating the paper's distributed deployment: a sensor
// station source, relocatable processing segments, and a collecting sink
// connect over TCP using streamin/streamout.
//
// A three-process pipeline on one machine, wired by hand:
//
//	dynriver sink -listen :7103
//	dynriver segment -type extract -listen :7102 -to 127.0.0.1:7103
//	dynriver station -to 127.0.0.1:7102 -clips 2
//
// The sink prints the ensembles it receives. Killing the segment process
// mid-clip and restarting it demonstrates scope repair: the sink reports
// BadCloseScope-discarded ensembles instead of corrupt ones.
//
// The coordinator subcommands automate the wiring and the recovery. The
// coordinator owns the topology; nodes register and are assigned segments;
// the station follows the pipeline entry address through failovers:
//
//	dynriver sink -listen :7103
//	dynriver coord -listen :7100 -sink 127.0.0.1:7103 -segments extract
//	dynriver node -name host-a -coord 127.0.0.1:7100
//	dynriver node -name host-b -coord 127.0.0.1:7100
//	dynriver station -coord 127.0.0.1:7100 -clips 4
//	dynriver status -coord 127.0.0.1:7100
//
// Killing one node process mid-clip makes the coordinator re-place its
// segments on the survivor and redirect the stream; the sink reports the
// scope repairs instead of corrupt ensembles.
//
// With -state the coordinator is durable: killing and restarting the
// coordinator process over the same directory leaves the data plane
// untouched — node agents keep their segments running, reconnect with
// backoff, and are adopted by the restarted coordinator (now one epoch
// higher) instead of being re-placed:
//
//	dynriver coord -listen :7100 -sink 127.0.0.1:7103 -segments extract -state /var/lib/dynriver
//
// One coordinator scales to many stations' pipelines over the same node
// pool (-pipelines N, or a -spec-file JSON fleet); each station follows
// its own pipeline's entry address, and pipelines can be added and
// removed at runtime without restarting anything:
//
//	dynriver coord -listen :7100 -sink 127.0.0.1:7103 -segments relay -pipelines 8
//	dynriver station -coord 127.0.0.1:7100 -pipeline p3 -clips 4
//	dynriver pipeline add -coord 127.0.0.1:7100 -id p9 -segments relay -sink 127.0.0.1:7104
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/river"
	"repro/internal/synth"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "station":
		err = runStation(os.Args[2:])
	case "segment":
		err = runSegment(os.Args[2:])
	case "sink":
		err = runSink(os.Args[2:])
	case "coord":
		err = runCoord(os.Args[2:])
	case "node":
		err = runNode(os.Args[2:])
	case "status":
		err = runStatus(os.Args[2:])
	case "events":
		err = runEvents(os.Args[2:])
	case "drain":
		err = runDrain(os.Args[2:])
	case "pipeline":
		err = runPipeline(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynriver:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  dynriver station (-to HOST:PORT | -coord HOST:PORT [-pipeline ID]) [-clips N] [-seed S] [-seconds SEC] [-batch N] [-pace D] [-probes D]
  dynriver segment -type extract|spectral|detect|slow|full -listen ADDR -to HOST:PORT
  dynriver sink -listen ADDR [-conns N]
  dynriver coord -listen ADDR -sink HOST:PORT [-segments TYPES] [-pipelines N | -spec-file FILE]
                 [-replicas N] [-heartbeat D] [-timeout D] [-placer POLICY]
                 [-state DIR] [-grace D] [-disconnect-grace D]
                 [-metrics-addr ADDR] [-monitor=BOOL]
                 [-react observe|drain] [-dry-run] [-remediate-cooldown D] [-remediate-max N]
                 [-autoscale] [-autoscale-low F] [-autoscale-high F] [-autoscale-min K]
                 [-autoscale-max K] [-autoscale-step N] [-autoscale-cooldown D]
  dynriver node -name NAME -coord HOST:PORT [-host IP] [-batch N] [-queue N] [-retry N] [-retry-max D]
                [-metrics-addr ADDR]
  dynriver status -coord HOST:PORT [-json] [-pipeline ID]
  dynriver events -coord HOST:PORT [-pipeline ID] [-follow] [-json] [-since SEQ]
  dynriver drain -coord HOST:PORT -seg UNIT [-pipeline ID]
  dynriver pipeline add -coord HOST:PORT -id ID -sink HOST:PORT [-segments TYPES] [-replicas N]
  dynriver pipeline rm -coord HOST:PORT -id ID

placer policies: least-loaded (default), spread, load-aware
segments syntax: TYPE, NAME=TYPE, with an optional :N replica suffix
(e.g. "relay:3,extract") or :sK shard suffix ("spectral:s4" runs the
segment as K=4 keyed shards behind a partition/collect pair; -autoscale
lets the coordinator move K with load); -replicas N applies to entries
without one
-pipelines N runs N copies of the -segments chain as pipelines p1..pN
(each needs its own station; all share the node pool); -spec-file names
a JSON file holding an array of pipeline specs ({"id","segments":[{"name",
"type","replicas"}],"sink_addr"}) for heterogeneous fleets
-metrics-addr serves Prometheus /metrics and /debug/pprof on ADDR
-react=drain auto-drains nodes the monitor flags anomalous (-dry-run to
audit decisions first); station -probes injects latency trace probes;
segment type "slow" delays records while $DYNRIVER_SLOW_FILE exists
($DYNRIVER_SLOW_MS per record, default 25), "detect" raises change alerts`)
}

// builtinRegistry exposes the acoustic pipeline's segment types to both
// the manual segment subcommand and coordinator-driven nodes.
func builtinRegistry() *pipeline.Registry {
	reg := pipeline.NewRegistry()
	reg.Register("extract", func() []pipeline.Operator {
		opsList, _, err := ops.ExtractionOps(ops.DefaultExtractConfig())
		if err != nil {
			panic(err)
		}
		return opsList
	})
	reg.Register("spectral", func() []pipeline.Operator { return ops.SpectralOps(10) })
	reg.Register("relay", func() []pipeline.Operator { return []pipeline.Operator{pipeline.Relay{}} })
	reg.Register("detect", func() []pipeline.Operator {
		det, err := ops.NewChangeDetect(ops.ChangeDetectConfig{})
		if err != nil {
			panic(err)
		}
		return []pipeline.Operator{det}
	})
	// "slow" is a relay whose per-record delay switches on while the file
	// named by DYNRIVER_SLOW_FILE exists — a degradation lever for smoke
	// tests and demos: touch the file to make whichever node hosts the
	// segment anomalous, remove it to recover.
	reg.Register("slow", func() []pipeline.Operator {
		delay := 25 * time.Millisecond
		if ms, err := strconv.Atoi(os.Getenv("DYNRIVER_SLOW_MS")); err == nil && ms > 0 {
			delay = time.Duration(ms) * time.Millisecond
		}
		return []pipeline.Operator{&slowRelay{file: os.Getenv("DYNRIVER_SLOW_FILE"), delay: delay}}
	})
	reg.Register("full", func() []pipeline.Operator {
		opsList, _, err := ops.ExtractionOps(ops.DefaultExtractConfig())
		if err != nil {
			panic(err)
		}
		return append(opsList, ops.SpectralOps(10)...)
	})
	return reg
}

// slowRelay passes records through, sleeping per record while its gate
// file exists. The existence check is cached for 100ms so the hot path
// stats the filesystem ten times a second, not per record.
type slowRelay struct {
	file  string
	delay time.Duration

	mu        sync.Mutex
	lastCheck time.Time
	active    bool
}

func (s *slowRelay) Name() string { return "slow" }

func (s *slowRelay) Process(r *record.Record, out pipeline.Emitter) error {
	if s.file != "" {
		s.mu.Lock()
		if time.Since(s.lastCheck) > 100*time.Millisecond {
			_, err := os.Stat(s.file)
			s.active, s.lastCheck = err == nil, time.Now()
		}
		active := s.active
		s.mu.Unlock()
		if active {
			time.Sleep(s.delay)
		}
	}
	return out.Emit(r)
}

// flushPolicy maps the -batch flag value to a record flush policy: batch
// <=1 selects per-record writes, anything larger the batched hot path
// with that record bound.
func flushPolicy(batch int) record.BatchConfig {
	if batch <= 1 {
		return record.PerRecordConfig()
	}
	cfg := record.DefaultBatchConfig()
	cfg.MaxRecords = batch
	if cfg.AdaptMax < batch {
		cfg.AdaptMax = batch
	}
	return cfg
}

func runStation(args []string) error {
	fs := flag.NewFlagSet("station", flag.ExitOnError)
	to := fs.String("to", "", "downstream address (exclusive with -coord)")
	coordAddr := fs.String("coord", "", "coordinator address to resolve and follow the pipeline entry")
	pipeID := fs.String("pipeline", "", "pipeline ID to follow on a multi-pipeline coordinator (default: the default pipeline)")
	clips := fs.Int("clips", 2, "clips to transmit")
	seed := fs.Int64("seed", 1, "clip generator seed")
	seconds := fs.Float64("seconds", 10, "seconds per clip")
	name := fs.String("name", "kbs-01", "station name")
	batch := fs.Int("batch", 64, "records per streamout batch (<=1 writes per record)")
	pace := fs.Duration("pace", 0, "sleep between records, approximating a live sensor (0 = stream flat-out)")
	probes := fs.Duration("probes", 0, "interval between end-to-end latency trace probes (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*to == "") == (*coordAddr == "") {
		return fmt.Errorf("station: exactly one of -to or -coord is required")
	}
	policy := flushPolicy(*batch)
	ctx := interruptContext()

	var out *pipeline.StreamOut
	if *coordAddr != "" {
		// Follow the pipeline entry address published by the coordinator:
		// the first update tells us where to dial, later ones re-route the
		// stream when the control plane moves the first segment. The watch
		// session itself reconnects with backoff so a coordinator restart
		// or network blip cannot strand the station on a stale address —
		// except after a protocol mismatch, which no retry can fix.
		type entryUpdate struct {
			addr     string
			boundary bool
		}
		entryCh := make(chan entryUpdate, 8)
		refused := make(chan error, 1)
		wctx, wcancel := context.WithCancel(ctx)
		defer wcancel()
		go func() {
			for {
				err := river.WatchPipelineEntry(wctx, *coordAddr, *pipeID, func(a string, boundary bool) {
					select {
					case entryCh <- entryUpdate{a, boundary}:
					default:
					}
				})
				if wctx.Err() != nil {
					return
				}
				if errors.Is(err, river.ErrProtocolMismatch) {
					fmt.Printf("station: entry watch refused (%v); not retrying\n", err)
					refused <- err
					return
				}
				fmt.Printf("station: entry watch lost (%v); reconnecting\n", err)
				select {
				case <-time.After(time.Second):
				case <-wctx.Done():
					return
				}
			}
		}()
		var entry string
		select {
		case up := <-entryCh:
			entry = up.addr
		case err := <-refused:
			return fmt.Errorf("station: %w", err)
		case <-time.After(30 * time.Second):
			return fmt.Errorf("station: no entry for pipeline %q from coordinator %s after 30s", *pipeID, *coordAddr)
		case <-ctx.Done():
			return nil
		}
		out = pipeline.NewStreamOutBatched(entry, policy)
		go func() {
			for {
				select {
				case up := <-entryCh:
					if up.boundary {
						// A planned drain of the entry segment: switch at
						// the next clip boundary so the old instance's
						// stream ends cleanly. Run it off the watch loop —
						// it blocks until the boundary (or 5s), and a
						// failover update arriving meanwhile must not wait
						// behind it (an immediate Redirect safely
						// supersedes a pending boundary target).
						go out.RedirectAtBoundary(up.addr, 5*time.Second)
					} else {
						out.Redirect(up.addr)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
		fmt.Printf("station: pipeline entry resolved to %s via coordinator %s\n", entry, *coordAddr)
	} else {
		out = pipeline.NewStreamOutBatched(*to, policy)
	}
	defer out.Close()

	station := synth.NewStation(*name, *seed, synth.ClipConfig{Seconds: *seconds})
	var src pipeline.Source = &ops.StationSource{Station: station, ClipCount: *clips, Pace: *pace}
	if *probes > 0 {
		// Interleave timestamped trace probes with the clip stream; every
		// tracing sink the probes pass reports origin-to-sink latency.
		src = &pipeline.ProbeSource{Source: src, Interval: *probes}
	}
	p := pipeline.New().SetSource(src).SetSink(out)
	fmt.Printf("station %s: sending %d clip(s) of %.0fs\n", *name, *clips, *seconds)
	return p.Run(ctx)
}

func runSegment(args []string) error {
	fs := flag.NewFlagSet("segment", flag.ExitOnError)
	typ := fs.String("type", "extract", "segment type: extract, spectral or full")
	listen := fs.String("listen", ":0", "listen address for upstream records")
	to := fs.String("to", "", "downstream address (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *to == "" {
		return fmt.Errorf("segment: -to is required")
	}
	node := pipeline.NewNode("cli", builtinRegistry())
	addr, err := node.Host("seg", *typ, *listen, *to)
	if err != nil {
		return err
	}
	fmt.Printf("segment %q listening on %s, forwarding to %s\n", *typ, addr, *to)
	<-interruptContext().Done()
	return node.StopAll()
}

func runSink(args []string) error {
	fs := flag.NewFlagSet("sink", flag.ExitOnError)
	listen := fs.String("listen", ":0", "listen address")
	conns := fs.Int("conns", 0, "stop after N upstream connections (0 = run until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := pipeline.NewStreamIn(*listen)
	if err != nil {
		return err
	}
	in.MaxConns = *conns
	fmt.Printf("sink listening on %s\n", in.Addr())
	go func() {
		<-interruptContext().Done()
		in.Close()
	}()
	col := ops.NewEnsembleCollector()
	report := pipeline.SinkFunc{SinkName: "report", Fn: func(r *record.Record) error {
		switch {
		case r.Kind == record.KindOpenScope && r.ScopeType == record.ScopeClip:
			fmt.Printf("clip %s from station %s\n",
				r.ContextValue(record.CtxClipID), r.ContextValue(record.CtxStation))
		case r.Kind == record.KindBadCloseScope:
			fmt.Printf("  !! scope %s repaired (upstream failure)\n", r.ScopeType)
		}
		return col.Consume(r)
	}}
	p := pipeline.New().SetSource(in).SetSink(report)
	if err := p.Run(interruptContext()); err != nil {
		return err
	}
	for i, e := range col.Ensembles() {
		fmt.Printf("ensemble %d: %.2fs, %.3fs long, %d patterns\n",
			i, e.StartSec, float64(len(e.Samples))/e.SampleRate, len(e.Patterns))
	}
	fmt.Printf("total ensembles: %d (discarded mid-failure: %d)\n", len(col.Ensembles()), col.Discarded())
	return nil
}

// parseSegments parses the -segments syntax (comma-separated TYPE or
// NAME=TYPE entries with an optional :N replica or :sK shard suffix)
// into segment specs; defReplicas applies to entries without a suffix.
func parseSegments(segments string, defReplicas int) ([]river.SegmentSpec, error) {
	var out []river.SegmentSpec
	for i, part := range strings.Split(segments, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, shards := defReplicas, 0
		if colon := strings.LastIndexByte(part, ':'); colon >= 0 {
			suffix := part[colon+1:]
			if strings.HasPrefix(suffix, "s") {
				parsed, err := strconv.Atoi(suffix[1:])
				if err != nil || parsed < 1 {
					return nil, fmt.Errorf("bad shard suffix in %q", part)
				}
				shards, n, part = parsed, 1, part[:colon]
			} else {
				parsed, err := strconv.Atoi(suffix)
				if err != nil || parsed < 1 {
					return nil, fmt.Errorf("bad replica suffix in %q", part)
				}
				n, part = parsed, part[:colon]
			}
		}
		name, typ := fmt.Sprintf("s%d-%s", i+1, part), part
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			name, typ = part[:eq], part[eq+1:]
		}
		out = append(out, river.SegmentSpec{Name: name, Type: typ, Replicas: n, Shards: shards})
	}
	return out, nil
}

// parsePlacer maps a -placer flag value to a placement policy.
func parsePlacer(name string) (river.Placer, error) {
	switch name {
	case "least-loaded":
		return river.LeastLoaded{}, nil
	case "spread":
		return river.Spread{}, nil
	case "load-aware":
		return river.LoadAware{}, nil
	}
	return nil, fmt.Errorf("unknown placer %q (want least-loaded, spread or load-aware)", name)
}

// runCoord starts the control-plane coordinator. One coordinator can
// maintain many pipelines over a shared node pool: -pipelines N clones
// the -segments chain into pipelines p1..pN (all forwarding to -sink),
// and -spec-file loads an arbitrary heterogeneous set from JSON. More
// pipelines can be added and removed at runtime with `dynriver pipeline`.
func runCoord(args []string) error {
	fs := flag.NewFlagSet("coord", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7100", "control listen address")
	sinkAddr := fs.String("sink", "", "terminal sink address (required unless -spec-file)")
	segments := fs.String("segments", "extract", "comma-separated segment types (or name=type pairs), upstream first")
	pipelines := fs.Int("pipelines", 1, "number of pipelines to run: 1 = the single default pipeline, N>1 = pipelines p1..pN each running the -segments chain")
	specFile := fs.String("spec-file", "", "JSON file holding an array of pipeline specs (overrides -segments/-pipelines/-sink)")
	heartbeat := fs.Duration("heartbeat", 250*time.Millisecond, "heartbeat interval told to nodes")
	timeout := fs.Duration("timeout", 0, "heartbeat silence before a node is declared dead (default 4x heartbeat)")
	minNodes := fs.Int("min-nodes", 1, "nodes required before the initial placement")
	replicas := fs.Int("replicas", 1, "default replica count for segments without a :N suffix (>1 runs a splitter/merger pair)")
	placerName := fs.String("placer", "least-loaded", "placement policy: least-loaded, spread or load-aware")
	stateDir := fs.String("state", "", "journal placement state to this directory; a coordinator restarted over it adopts the running data plane instead of re-placing")
	grace := fs.Duration("grace", 0, "restart grace window for agents to re-register and be adopted (default 5s; needs -state)")
	disconnectGrace := fs.Duration("disconnect-grace", 0, "hold a disconnected node's units this long for reconnect-and-adopt before re-placing (0 = fail over immediately)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (empty = off)")
	monitor := fs.Bool("monitor", true, "run the self-monitoring anomaly detectors over node telemetry")
	react := fs.String("react", "observe", "what an anomaly triggers: observe (record only) or drain (pre-emptively drain the flagged node)")
	remCooldown := fs.Duration("remediate-cooldown", time.Minute, "minimum spacing between remediations of the same node")
	remMax := fs.Int("remediate-max", 1, "nodes remediated concurrently at most")
	dryRun := fs.Bool("dry-run", false, "with -react=drain: log remediation decisions without executing the drains")
	autoscale := fs.Bool("autoscale", false, "elastically resize sharded segments (:sK) with their measured saturation")
	asLow := fs.Float64("autoscale-low", 0.15, "saturation below this scales a shard group in")
	asHigh := fs.Float64("autoscale-high", 0.75, "saturation above this scales a shard group out")
	asMin := fs.Int("autoscale-min", 1, "shard-count floor the autoscaler will not shrink below")
	asMax := fs.Int("autoscale-max", 8, "shard-count ceiling the autoscaler will not grow past")
	asStep := fs.Int("autoscale-step", 2, "shards added or removed per resize")
	asCooldown := fs.Duration("autoscale-cooldown", 10*time.Second, "minimum spacing between resizes of the same shard group")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var specs []river.PipelineSpec
	switch {
	case *specFile != "":
		raw, err := os.ReadFile(*specFile)
		if err != nil {
			return fmt.Errorf("coord: %w", err)
		}
		if err := json.Unmarshal(raw, &specs); err != nil {
			return fmt.Errorf("coord: parse %s: %w", *specFile, err)
		}
	case *sinkAddr == "":
		return fmt.Errorf("coord: -sink is required")
	default:
		segs, err := parseSegments(*segments, *replicas)
		if err != nil {
			return fmt.Errorf("coord: %w", err)
		}
		if *pipelines <= 1 {
			specs = []river.PipelineSpec{{Segments: segs, SinkAddr: *sinkAddr}}
			break
		}
		for i := 1; i <= *pipelines; i++ {
			specs = append(specs, river.PipelineSpec{
				ID:       fmt.Sprintf("p%d", i),
				Segments: append([]river.SegmentSpec(nil), segs...),
				SinkAddr: *sinkAddr,
			})
		}
	}
	placer, err := parsePlacer(*placerName)
	if err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	coord, err := river.NewCoordinator(river.Config{
		ListenAddr:        *listen,
		Pipelines:         specs,
		HeartbeatInterval: *heartbeat,
		HeartbeatTimeout:  *timeout,
		MinNodes:          *minNodes,
		Placer:            placer,
		StateDir:          *stateDir,
		RestartGrace:      *grace,
		DisconnectGrace:   *disconnectGrace,
		MetricsAddr:       *metricsAddr,
		Monitor:           river.MonitorConfig{Disabled: !*monitor},
		Remediate: river.RemediateConfig{
			Mode:          *react,
			DryRun:        *dryRun,
			Cooldown:      *remCooldown,
			MaxConcurrent: *remMax,
		},
		Autoscale: river.AutoscaleConfig{
			Enabled:   *autoscale,
			LowWater:  *asLow,
			HighWater: *asHigh,
			MinShards: *asMin,
			MaxShards: *asMax,
			Step:      *asStep,
			Cooldown:  *asCooldown,
		},
		Logf: func(format string, a ...any) { fmt.Printf(format+"\n", a...) },
	})
	if err != nil {
		return err
	}
	durable := ""
	if *stateDir != "" {
		durable = fmt.Sprintf(", state %s", *stateDir)
	}
	fmt.Printf("coordinator listening on %s as epoch %d (%d pipeline(s), placer %s%s)\n",
		coord.Addr(), coord.Epoch(), len(specs), *placerName, durable)
	if ma := coord.MetricsAddr(); ma != "" {
		fmt.Printf("metrics on http://%s/metrics (pprof on /debug/pprof)\n", ma)
	}
	<-interruptContext().Done()
	return coord.Close()
}

// runPipeline adds or removes a pipeline on a running coordinator:
// `pipeline add` submits a new spec (placed onto the shared node pool by
// the next reconcile passes, journaled so a restart reloads it),
// `pipeline rm` stops and forgets one.
func runPipeline(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("pipeline: want add or rm")
	}
	verb := args[0]
	fs := flag.NewFlagSet("pipeline "+verb, flag.ExitOnError)
	coordAddr := fs.String("coord", "", "coordinator address (required)")
	id := fs.String("id", "", "pipeline ID (required)")
	segments := fs.String("segments", "extract", "comma-separated segment types (add)")
	sinkAddr := fs.String("sink", "", "terminal sink address (add; required)")
	replicas := fs.Int("replicas", 1, "default replica count (add)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *coordAddr == "" || *id == "" {
		return fmt.Errorf("pipeline %s: -coord and -id are required", verb)
	}
	switch verb {
	case "add":
		if *sinkAddr == "" {
			return fmt.Errorf("pipeline add: -sink is required")
		}
		segs, err := parseSegments(*segments, *replicas)
		if err != nil {
			return fmt.Errorf("pipeline add: %w", err)
		}
		spec := river.PipelineSpec{ID: *id, Segments: segs, SinkAddr: *sinkAddr}
		if err := river.RequestPipelineAdd(*coordAddr, spec, 10*time.Second); err != nil {
			return err
		}
		fmt.Printf("pipeline %s added (%d segment(s) -> sink %s)\n", *id, len(segs), *sinkAddr)
	case "rm":
		if err := river.RequestPipelineRemove(*coordAddr, *id, 10*time.Second); err != nil {
			return err
		}
		fmt.Printf("pipeline %s removed\n", *id)
	default:
		return fmt.Errorf("pipeline: unknown verb %q (want add or rm)", verb)
	}
	return nil
}

// runNode runs a node agent that hosts segments the coordinator assigns.
// The agent supervises its own control sessions: started before the
// coordinator it retries the dial with backoff, and when a session drops
// its hosted segments keep running while it reconnects and re-registers
// with its inventory — so a coordinator restart never touches the data
// plane. Interrupting the process stops the hosted segments (node death).
func runNode(args []string) error {
	fs := flag.NewFlagSet("node", flag.ExitOnError)
	name := fs.String("name", "", "node name (required, unique per coordinator)")
	coordAddr := fs.String("coord", "", "coordinator address (required)")
	host := fs.String("host", "127.0.0.1", "interface hosted segments listen on (must be dialable by upstream)")
	batch := fs.Int("batch", 64, "records per hosted streamout batch (<=1 writes per record)")
	queue := fs.Int("queue", pipeline.DefaultQueueSize, "hosted streamin emit-queue bound (0 = direct emit)")
	retries := fs.Int("retry", 0, "consecutive failed connection attempts before giving up (0 = retry forever)")
	retryMax := fs.Duration("retry-max", 2*time.Second, "cap on the jittered reconnect backoff")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *coordAddr == "" {
		return fmt.Errorf("node: -name and -coord are required")
	}
	agent := river.NewAgent(*name, *coordAddr, builtinRegistry())
	agent.ListenHost = *host
	agent.MetricsAddr = *metricsAddr
	agent.Node().FlushPolicy = flushPolicy(*batch)
	agent.Node().QueueSize = *queue
	agent.ReconnectMax = *retryMax
	agent.DialAttempts = *retries
	if *retries == 0 {
		agent.DialAttempts = -1 // CLI nodes retry forever by default
	}
	agent.Logf = func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	return agent.Run(interruptContext())
}

// runStatus prints a coordinator's cluster snapshot, either as the
// human-readable report or (-json) as the ClusterStatus JSON schema —
// deterministically ordered (nodes and segments sorted by name,
// placements in topology order), so scripts and tests can diff it.
func runStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	coordAddr := fs.String("coord", "", "coordinator address (required)")
	asJSON := fs.Bool("json", false, "emit the machine-readable ClusterStatus JSON instead of the report")
	pipeID := fs.String("pipeline", "", "report only this pipeline's placements")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordAddr == "" {
		return fmt.Errorf("status: -coord is required")
	}
	st, err := river.FetchStatus(*coordAddr, 5*time.Second)
	if err != nil {
		return err
	}
	if *pipeID != "" {
		kept := st.Pipelines[:0]
		for _, p := range st.Pipelines {
			if p.ID == *pipeID {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("status: coordinator has no pipeline %q", *pipeID)
		}
		st.Pipelines = kept
		st.Placements = kept[0].Placements
		st.EntryAddr, st.SinkAddr = kept[0].EntryAddr, kept[0].SinkAddr
	}
	if *asJSON {
		raw, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
		return nil
	}
	fmt.Printf("epoch: %d\nentry: %s\nsink:  %s\n", st.Epoch, orDash(st.EntryAddr), st.SinkAddr)
	fmt.Printf("nodes (%d):\n", len(st.Nodes))
	for _, n := range st.Nodes {
		fmt.Printf("  %-12s last heartbeat %4dms ago\n", n.Name, n.LastBeatMS)
		for _, s := range n.Segments {
			state := ""
			if s.Failed {
				state = " FAILED"
				if s.Err != "" {
					state += " (" + s.Err + ")"
				}
			}
			fmt.Printf("    %-14s %-10s at %-21s processed=%d emitted=%d lag=%d queue=%d/%d conns=%d repairs=%d%s\n",
				s.Name, "("+s.Type+")", s.Addr, s.Processed, s.Emitted, s.LagValue(), s.QueueDepth, s.QueueCap, s.Conns, s.BadCloses, state)
			fmt.Printf("    %-14s %-10s out: records=%d batches=%d bytes=%d\n",
				"", "", s.RecordsOut, s.BatchesOut, s.BytesOut)
			switch river.KindOf(s.Role) {
			case river.KindFanOut:
				fmt.Printf("    %-14s %-10s %s: legs=%d leg_drops=%d\n", "", "", s.Role, s.Legs, s.LegDrops)
			case river.KindFanIn:
				fmt.Printf("    %-14s %-10s %s: legs=%d dups=%d skipped=%d untagged=%d\n",
					"", "", s.Role, s.Legs, s.Dups, s.Skipped, s.Untagged)
			}
		}
	}
	printPlacements := func(ps []river.PlacementStatus) {
		for _, p := range ps {
			kind := cmp.Or(p.Type, p.Role)
			if p.Placed {
				fmt.Printf("  %-14s (%s) on %s at %s\n", p.Seg, kind, p.Node, p.Addr)
			} else {
				fmt.Printf("  %-14s (%s) UNPLACED\n", p.Seg, kind)
			}
		}
	}
	if len(st.Pipelines) > 1 || (len(st.Pipelines) == 1 && st.Pipelines[0].ID != "") {
		fmt.Printf("pipelines (%d):\n", len(st.Pipelines))
		for _, pl := range st.Pipelines {
			id := pl.ID
			if id == "" {
				id = "(default)"
			}
			fmt.Printf("pipeline %s: entry %s -> sink %s (%d unit(s)):\n",
				id, orDash(pl.EntryAddr), pl.SinkAddr, len(pl.Placements))
			printPlacements(pl.Placements)
			printShardGroups(st, pl.Placements)
		}
		return nil
	}
	fmt.Printf("placements (%d):\n", len(st.Placements))
	printPlacements(st.Placements)
	printShardGroups(st, st.Placements)
	return nil
}

// printShardGroups renders the elastic view of each sharded group in ps:
// its live K, per-leg throughput and queue, and the skew ratio — the
// hottest leg's processed count over the per-leg mean, so 1.00 is a
// perfectly spread key space and K is the worst case (every record on
// one leg). Replica groups render nothing here; their legs are mirrors,
// not partitions, and skew over copies is meaningless.
func printShardGroups(st *river.ClusterStatus, ps []river.PlacementStatus) {
	segs := make(map[string]river.SegmentStatus)
	for _, n := range st.Nodes {
		for _, s := range n.Segments {
			segs[s.Name] = s
		}
	}
	var order []string
	groups := make(map[string][]river.PlacementStatus)
	for _, p := range ps {
		if p.Role != river.RoleShard {
			continue
		}
		g := p.Group
		if g == "" {
			if i := strings.LastIndexByte(p.Seg, '/'); i >= 0 {
				g = p.Seg[:i]
			}
		}
		if _, ok := groups[g]; !ok {
			order = append(order, g)
		}
		groups[g] = append(groups[g], p)
	}
	for _, g := range order {
		legs := groups[g]
		var total, hottest uint64
		for _, p := range legs {
			if s, ok := segs[p.Seg]; ok {
				total += s.Processed
				if s.Processed > hottest {
					hottest = s.Processed
				}
			}
		}
		skew := 1.0
		if total > 0 {
			skew = float64(hottest) * float64(len(legs)) / float64(total)
		}
		fmt.Printf("  shard group %s: K=%d skew=%.2f\n", g, len(legs), skew)
		for _, p := range legs {
			s, ok := segs[p.Seg]
			if !ok {
				fmt.Printf("    %-16s on %-12s (no telemetry yet)\n", p.Seg, orDash(p.Node))
				continue
			}
			fmt.Printf("    %-16s on %-12s processed=%d queue=%d/%d\n",
				p.Seg, p.Node, s.Processed, s.QueueDepth, s.QueueCap)
		}
	}
}

// runEvents prints a coordinator's control-plane event stream: the
// retained backlog, and with -follow every subsequent event as
// it happens — place, failover, drain, anomaly — until interrupted.
// -json emits one JSON event per line for scripts; the schema is the
// obs.Event wire format.
func runEvents(args []string) error {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	coordAddr := fs.String("coord", "", "coordinator address (required)")
	pipeID := fs.String("pipeline", "", "only this pipeline's events, plus cluster-wide ones (register, failover, anomaly)")
	follow := fs.Bool("follow", false, "stream live events after the backlog until interrupted")
	asJSON := fs.Bool("json", false, "one JSON event per line instead of the report")
	since := fs.Uint64("since", 0, "only events with sequence numbers greater than this")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordAddr == "" {
		return fmt.Errorf("events: -coord is required")
	}
	printEvent := func(e obs.Event) {
		if *asJSON {
			raw, err := json.Marshal(e)
			if err != nil {
				return
			}
			fmt.Println(string(raw))
			return
		}
		var parts []string
		if e.Phase != "" {
			parts = append(parts, "phase="+e.Phase)
		}
		if e.Pipeline != "" {
			parts = append(parts, "pipeline="+e.Pipeline)
		}
		if e.Unit != "" {
			parts = append(parts, "unit="+e.Unit)
		}
		if e.Node != "" {
			parts = append(parts, "node="+e.Node)
		}
		if e.Addr != "" {
			parts = append(parts, "addr="+e.Addr)
		}
		if e.Metric != "" {
			parts = append(parts, fmt.Sprintf("%s=%g z=%.1f", e.Metric, e.Value, e.Score))
		} else if e.Value != 0 {
			parts = append(parts, fmt.Sprintf("value=%g", e.Value))
		}
		if e.Detail != "" {
			parts = append(parts, "("+e.Detail+")")
		}
		fmt.Printf("%6d %s %-12s %s\n", e.Seq,
			time.UnixMilli(e.TimeMS).Format("15:04:05.000"), e.Type, strings.Join(parts, " "))
	}
	if !*follow {
		events, err := river.FetchEvents(*coordAddr, *pipeID, *since, 10*time.Second)
		if err != nil {
			return err
		}
		for _, e := range events {
			printEvent(e)
		}
		return nil
	}
	// Follow survives a coordinator bounce: on connection loss, reconnect
	// with backoff and resume from the last sequence number seen, so no
	// duplicates print. A restarted coordinator's in-memory event log
	// restarts its sequence numbers, which would make a stale cursor
	// suppress every fresh event — the epoch probe detects the new
	// incarnation and resets the cursor instead.
	ctx := interruptContext()
	last := *since
	var epoch uint64
	if st, err := river.FetchStatus(*coordAddr, 5*time.Second); err == nil {
		epoch = st.Epoch
	}
	backoff := time.Second
	for {
		err := river.WatchEvents(ctx, *coordAddr, *pipeID, last, func(e obs.Event) {
			last = e.Seq
			backoff = time.Second
			printEvent(e)
		})
		if ctx.Err() != nil {
			return nil
		}
		if errors.Is(err, river.ErrProtocolMismatch) {
			return err
		}
		fmt.Fprintf(os.Stderr, "events: stream lost (%v); reconnecting in %s (resume after seq %d)\n", err, backoff, last)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil
		}
		if backoff *= 2; backoff > 15*time.Second {
			backoff = 15 * time.Second
		}
		if st, err := river.FetchStatus(*coordAddr, 5*time.Second); err == nil && st.Epoch != epoch {
			fmt.Fprintf(os.Stderr, "events: coordinator restarted (epoch %d -> %d); resetting resume cursor\n", epoch, st.Epoch)
			epoch, last = st.Epoch, 0
		}
	}
}

// runDrain asks the coordinator for a planned zero-repair move of one
// placement unit (a segment, or a replica like "s1-relay/r2"). Units of
// a named pipeline are addressed with -pipeline ID, or directly by their
// scoped name ("ID:seg").
func runDrain(args []string) error {
	fs := flag.NewFlagSet("drain", flag.ExitOnError)
	coordAddr := fs.String("coord", "", "coordinator address (required)")
	seg := fs.String("seg", "", "placement unit to move (required)")
	pipeID := fs.String("pipeline", "", "pipeline the unit belongs to (default: the default pipeline)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordAddr == "" || *seg == "" {
		return fmt.Errorf("drain: -coord and -seg are required")
	}
	unit := *seg
	if *pipeID != "" {
		unit = *pipeID + ":" + unit
	}
	if err := river.RequestDrain(*coordAddr, unit, 30*time.Second); err != nil {
		return err
	}
	fmt.Printf("drained %s\n", unit)
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

var (
	interruptOnce sync.Once
	interruptCtx  context.Context
)

// interruptContext returns a process-wide context cancelled by
// SIGINT/SIGTERM.
func interruptContext() context.Context {
	interruptOnce.Do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		interruptCtx = ctx
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-ch
			cancel()
		}()
	})
	return interruptCtx
}
