package main

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/replica"
	"repro/internal/shard"
)

// Workload names, in the order they run and print.
const (
	wlRelayChain      = "relay_chain"
	wlReplicaGroup    = "replica_group"
	wlShardGroup      = "shard_group"
	wlStationPipeline = "station_pipeline"
)

// workload describes one benchmark workload. Every constant here is part
// of the benchmark's definition and identical on every commit.
type workload struct {
	name string
	why  string
	// ratePerS is the paced phase's fixed open-loop rate in input records
	// per second: frozen at about 40% of the saturation median measured on
	// the commit that introduced the benchmark (see README.md), never
	// derived at run time.
	ratePerS float64
	// keys is the number of station keys records are spread over (1 when
	// the workload is a single stream).
	keys int
	// markEvery: one input record in this many is timed in a traced run.
	markEvery uint64
	build     func(b *builder, sink pipeline.Sink) error
}

var workloads = []workload{
	{
		name:      wlRelayChain,
		why:       "64-byte records over three plain TCP hops: codec, batching, syscalls and the emit queue are all of the work",
		ratePerS:  170_000,
		keys:      1,
		markEvery: 512,
		build:     buildRelayChain,
	},
	{
		name:      wlReplicaGroup,
		why:       "the same records through a 3-leg replica group: the merger decodes three copies per record and dedups through the ring",
		ratePerS:  130_000,
		keys:      1,
		markEvery: 512,
		build:     buildReplicaGroup,
	},
	{
		name:      wlShardGroup,
		why:       "64 Zipf-skewed station keys through a 2-leg shard group: the same ring reorders disjoint skewed legs without dedup",
		ratePerS:  230_000,
		keys:      shardKeys,
		markEvery: 512,
		build:     buildShardGroup,
	},
	{
		name:      wlStationPipeline,
		why:       "the paper path deployed: 2 s station clips through extract and spectral nodes to a MESO classifying sink; operators do the work, transport is idle",
		ratePerS:  2_000,
		keys:      1,
		markEvery: 1,
		build:     buildStationPipeline,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Shard workload shape: 64 station keys drawn with Zipf(1.1) popularity
// over K=2 legs.
const (
	shardKeys = 64
	shardLegs = 2
	zipfS     = 1.1
	replicaN  = 3
	// ringWindow is the reorder window of both fan-in rings, raised from
	// the defaults (1024 for the merger, 8192 for the collector). A ring
	// skips ahead, losing records, as soon as one leg runs more than its
	// window ahead of the record the ring is waiting for; nothing between
	// the fan-out and the ring bounds that skew below what the legs'
	// socket buffers hold. At the paced phase's rates the defaults are
	// 8 ms and 36 ms of traffic, less than a scheduling stall on this box,
	// and the oracle then counts the skipped records as failures. 65536
	// is above a quarter second on every workload.
	ringWindow = 1 << 16
	groupName  = "bench"
	paaFactor  = 10
	segRelay   = "relay"
	segExtract = "extract"
	segSpectr  = "spectral"
)

// newRegistry registers the three segment types the workloads host. The
// extract chain's cutter is handed to onCutter for its reduction counter.
func newRegistry(onCutter func(*ops.Cutter)) *pipeline.Registry {
	reg := pipeline.NewRegistry()
	reg.Register(segRelay, func() []pipeline.Operator {
		return []pipeline.Operator{pipeline.Relay{}}
	})
	reg.Register(segExtract, func() []pipeline.Operator {
		chain, cutter, err := ops.ExtractionOps(ops.DefaultExtractConfig())
		if err != nil {
			// The default configuration is a constant of the repo.
			panic("bench: extraction ops: " + err.Error())
		}
		onCutter(cutter)
		return chain
	})
	reg.Register(segSpectr, func() []pipeline.Operator { return ops.SpectralOps(paaFactor) })
	return reg
}

// unit is one hosted source -> segment -> sink instance, each on a node
// of its own as separate hosts would run them. The endpoints are kept so
// the stats sampler can read them directly (a decorated endpoint hides
// its optional stats interfaces from Node.Stats).
type unit struct {
	name  string
	stage int
	node  *pipeline.Node
	in    *pipeline.StreamIn  // nil when the source is a fan-in ring
	ring  *replica.Merger     // the merger/collector source, else nil
	out   *pipeline.StreamOut // nil for the terminal unit
}

// topology is one workload's running deployment.
type topology struct {
	// entry is what the single generator goroutine drives: the first
	// streamout, the replica splitter or the shard partitioner.
	entry pipeline.Sink
	// rawEntry is the entry without the tracing decorator, for its public
	// counters.
	rawEntry pipeline.Sink
	// flush delivers the entry's pending batch (fan-out entries flush on
	// their own delay timers and have none).
	flush func() error
	units []*unit

	splitter    *replica.Splitter
	partitioner *shard.Partitioner
	// cutter is the hosted extract chain's cutter; its counters are read
	// only after stop.
	cutter     *ops.Cutter
	closeEntry func()
}

// ring returns the fan-in ring of the terminal unit, nil on workloads
// without one.
func (t *topology) ring() *replica.Merger {
	for _, u := range t.units {
		if u.ring != nil {
			return u.ring
		}
	}
	return nil
}

// stop tears the deployment down, generator side first, and returns once
// every goroutine of every unit has exited.
func (t *topology) stop() {
	t.closeEntry()
	for _, u := range t.units {
		_ = u.node.StopAll()
	}
}

// builder stands a topology up from the layers' public constructors.
// With a tracer set it passes the benchmark's decorators in as well.
type builder struct {
	reg *pipeline.Registry
	tr  *tracer
	top *topology
}

func (b *builder) newNode(name string) *pipeline.Node {
	n := pipeline.NewNode("host-"+name, b.reg)
	// As river.Agent does in production: every hosted unit gets a latency
	// tracer writing into the node's registry.
	n.Obs = obs.NewRegistry()
	return n
}

// hostSegment hosts a registry segment between a pooled streamin and a
// batched streamout, exactly as Node.Host wires them, and returns the
// address upstream dials.
func (b *builder) hostSegment(name, segType, downstream string, stage, leg int) (string, error) {
	chain, err := b.reg.Build(segType)
	if err != nil {
		return "", err
	}
	node := b.newNode(name)
	in, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	in.QueueSize = node.QueueSize
	in.Pooled = true
	out := pipeline.NewStreamOutBatched(downstream, node.FlushPolicy)
	var src pipeline.Source = in
	var sink pipeline.Sink = out
	if t := b.tr; t != nil {
		chain = t.wrapOps(name, stage, leg, chain)
		src = &tracedSource{Source: in, t: t, b: t.boundary("pipeline.source", kindSource, name, stage, leg, 0)}
		sink = &tracedSink{Sink: out, t: t, b: t.boundary("pipeline.sink_consume", kindSink, name, stage, leg, 100)}
	}
	if err := node.HostUnit(name, "", src, pipeline.NewSegment(name, chain...), sink); err != nil {
		return "", err
	}
	b.top.units = append(b.top.units, &unit{name: name, stage: stage, node: node, in: in, out: out})
	return in.Addr(), nil
}

// hostTerminal hosts the oracle sink behind src: a pooled streamin, or a
// fan-in ring (layer names the source for the trace).
func (b *builder) hostTerminal(src pipeline.Source, layer, role string, sink pipeline.Sink, stage int) error {
	const name = "sink"
	node := b.newNode(name)
	u := &unit{name: name, stage: stage, node: node}
	switch s := src.(type) {
	case *pipeline.StreamIn:
		u.in = s
	case *replica.Merger:
		u.ring = s
	case *shard.Collector:
		u.ring = s.Merger
	}
	if t := b.tr; t != nil {
		src = &tracedSource{Source: src, t: t, b: t.boundary(layer, kindSource, name, stage, 0, 0)}
		sink = &tracedSink{Sink: sink, t: t, b: t.boundary("sink.oracle", kindOracle, name, stage, 0, 100)}
	}
	if err := node.HostUnit(name, role, src, pipeline.NewSegment(name), sink); err != nil {
		return err
	}
	b.top.units = append(b.top.units, u)
	return nil
}

// setEntry installs the sink the generator drives.
func (b *builder) setEntry(entry pipeline.Sink, layer string, flush func() error, closeFn func()) {
	b.top.flush = flush
	b.top.closeEntry = closeFn
	b.top.entry, b.top.rawEntry = entry, entry
	if t := b.tr; t != nil {
		b.top.entry = &tracedSink{Sink: entry, t: t, b: t.boundary(layer, kindEntry, "", 0, 0, 1)}
	}
}

func (b *builder) terminalStreamIn() (*pipeline.StreamIn, error) {
	in, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.QueueSize = pipeline.DefaultQueueSize
	in.Pooled = true // the oracle sinks never retain a record
	return in, nil
}

func (b *builder) streamOutEntry(addr string) {
	out := pipeline.NewStreamOutBatched(addr, record.DefaultBatchConfig())
	b.setEntry(out, "pipeline.streamout", out.Flush, func() { _ = out.Close() })
}

// generator -> streamout -> relay -> relay -> sink streamin.
func buildRelayChain(b *builder, sink pipeline.Sink) error {
	in, err := b.terminalStreamIn()
	if err != nil {
		return err
	}
	if err := b.hostTerminal(in, "pipeline.source", "", sink, 3); err != nil {
		return err
	}
	addrB, err := b.hostSegment("relay-b", segRelay, in.Addr(), 2, 0)
	if err != nil {
		return err
	}
	addrA, err := b.hostSegment("relay-a", segRelay, addrB, 1, 0)
	if err != nil {
		return err
	}
	b.streamOutEntry(addrA)
	return nil
}

// generator -> splitter -> 3 relay legs -> merger -> sink.
func buildReplicaGroup(b *builder, sink pipeline.Sink) error {
	merger, err := replica.NewMerger(replica.MergerConfig{Group: groupName, ListenAddr: "127.0.0.1:0", Pooled: true, Window: ringWindow})
	if err != nil {
		return err
	}
	if err := b.hostTerminal(merger, "replica.merger_source", "merge", sink, 2); err != nil {
		return err
	}
	legs := make([]string, replicaN)
	for i := range legs {
		legs[i], err = b.hostSegment(fmt.Sprintf("leg-%d", i+1), segRelay, merger.Addr(), 1, i+1)
		if err != nil {
			return err
		}
	}
	sp := replica.NewSplitter(replica.SplitterConfig{Group: groupName, Epoch: 1, Legs: legs})
	b.top.splitter = sp
	b.setEntry(sp, "replica.splitter_consume", nil, func() { _ = sp.Close() })
	return nil
}

// generator -> partitioner -> 2 relay legs -> collector -> sink.
func buildShardGroup(b *builder, sink pipeline.Sink) error {
	col, err := shard.NewCollector(shard.CollectorConfig{Group: groupName, ListenAddr: "127.0.0.1:0", Pooled: true, Window: ringWindow})
	if err != nil {
		return err
	}
	if err := b.hostTerminal(col, "shard.collector_source", "collect", sink, 2); err != nil {
		return err
	}
	legs := make([]string, shardLegs)
	for i := range legs {
		legs[i], err = b.hostSegment(fmt.Sprintf("leg-%d", i+1), segRelay, col.Addr(), 1, i+1)
		if err != nil {
			return err
		}
	}
	p := shard.NewPartitioner(shard.PartitionerConfig{Group: groupName, Epoch: 1, Legs: legs})
	b.top.partitioner = p
	b.setEntry(p, "shard.partitioner_consume", nil, func() { _ = p.Close() })
	return nil
}

// generator -> streamout -> extract node -> spectral node -> classifying
// sink streamin.
func buildStationPipeline(b *builder, sink pipeline.Sink) error {
	in, err := b.terminalStreamIn()
	if err != nil {
		return err
	}
	if err := b.hostTerminal(in, "pipeline.source", "", sink, 3); err != nil {
		return err
	}
	addrS, err := b.hostSegment(segSpectr, segSpectr, in.Addr(), 2, 0)
	if err != nil {
		return err
	}
	addrE, err := b.hostSegment(segExtract, segExtract, addrS, 1, 0)
	if err != nil {
		return err
	}
	b.streamOutEntry(addrE)
	return nil
}

// standUp builds w's topology around the given oracle sink.
func standUp(w workload, sink pipeline.Sink, tr *tracer) (*topology, error) {
	top := &topology{closeEntry: func() {}}
	b := &builder{reg: newRegistry(func(c *ops.Cutter) { top.cutter = c }), tr: tr, top: top}
	if err := w.build(b, sink); err != nil {
		b.top.stop()
		return nil, fmt.Errorf("%s: stand up: %w", w.name, err)
	}
	sort.SliceStable(b.top.units, func(i, j int) bool { return b.top.units[i].stage < b.top.units[j].stage })
	return b.top, nil
}
