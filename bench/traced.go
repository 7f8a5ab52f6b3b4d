package main

import (
	"bufio"
	"bytes"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// opNames are the operators a workload's segments can host; every traced
// run reports a self time for each (zero where the workload never runs
// it, which is itself the prediction the trace checks).
var opNames = []string{
	"saxanomaly", "trigger", "cutter",
	"reslice", "welchwindow", "float2cplx", "dft", "cabs", "cutout", "paa", "rec2vect",
	"relay",
}

// boundarySnap is a boundary's counters at one instant, so a phase's
// share can be taken as a difference.
type boundarySnap struct {
	count, timed, waits uint64
	selfNs, waitNs      int64
}

func (t *tracer) snapshot() map[*boundary]boundarySnap {
	out := make(map[*boundary]boundarySnap, len(t.bounds))
	for _, b := range t.bounds {
		out[b] = boundarySnap{
			count: b.count.Load(), timed: b.timed.Load(), waits: b.waits.Load(),
			selfNs: b.selfNs.Load(), waitNs: b.waitNs.Load(),
		}
	}
	return out
}

// phaseStats is what the boundaries measured between two snapshots.
type phaseStats struct {
	t        *tracer
	from, to map[*boundary]boundarySnap
	wallNs   float64
}

func (p phaseStats) delta(b *boundary) boundarySnap {
	f, t := p.from[b], p.to[b]
	return boundarySnap{
		count: t.count - f.count, timed: t.timed - f.timed, waits: t.waits - f.waits,
		selfNs: t.selfNs - f.selfNs, waitNs: t.waitNs - f.waitNs,
	}
}

// selfPerCall is the mean self time, in ns, of the timed calls of every
// boundary of the layer (all legs, all units).
func (p phaseStats) selfPerCall(layer string) float64 {
	var self, timed float64
	for _, b := range p.t.bounds {
		if b.layer == layer {
			d := p.delta(b)
			self += float64(d.selfNs)
			timed += float64(d.timed)
		}
	}
	return ratio(self, timed)
}

// busyShare is the share of the phase's wall time a unit's operator
// chain was busy: timed self time scaled up to every call.
func (p phaseStats) busyShare(unit string) float64 {
	var busy float64
	for _, b := range p.t.bounds {
		if b.kind == kindOp && b.unit == unit {
			d := p.delta(b)
			busy += ratio(float64(d.selfNs), float64(d.timed)) * float64(d.count)
		}
	}
	return ratio(busy, p.wallNs)
}

// waitShares returns, per hosted unit, the share of its source's emit
// cycle spent waiting for input rather than blocked on its own downstream.
func (p phaseStats) waitShares() map[string]float64 {
	out := make(map[string]float64)
	for _, b := range p.t.bounds {
		if b.kind != kindSource {
			continue
		}
		d := p.delta(b)
		wait := ratio(float64(d.waitNs), float64(d.waits))
		emit := ratio(float64(d.selfNs), float64(d.timed))
		out[b.unit] = ratio(wait, wait+emit)
	}
	return out
}

// bottleneck names the unit that waits least for input. In a saturated
// chain the units upstream of the bottleneck wait as little (they are
// backpressured), so among units within 0.05 of the minimum the one
// furthest downstream is the bottleneck: it is busy while those before
// it are blocked.
func (p phaseStats) bottleneck() (string, float64) {
	shares := p.waitShares()
	best := math.Inf(1)
	for _, s := range shares {
		best = math.Min(best, s)
	}
	name := ""
	for _, b := range p.t.ordered() {
		if b.kind == kindSource && shares[b.unit] <= best+0.05 {
			name = b.unit
		}
	}
	if name == "" {
		return "", 0
	}
	return name, shares[name]
}

// wireCounters sums the public egress counters of every streamout in the
// topology, the fan-out entry's per-leg streamouts included.
type wireCounters struct{ records, batches, bytes, corrupt uint64 }

// egress is the counter set streamouts, splitters and partitioners share.
type egress interface {
	RecordsOut() uint64
	BatchesOut() uint64
	BytesOut() uint64
}

func (t *topology) wire() wireCounters {
	var c wireCounters
	add := func(e egress) {
		c.records += e.RecordsOut()
		c.batches += e.BatchesOut()
		c.bytes += e.BytesOut()
	}
	if e, ok := t.rawEntry.(egress); ok {
		add(e)
	}
	for _, u := range t.units {
		if u.out != nil {
			add(u.out)
		}
		if u.in != nil {
			c.corrupt += u.in.CorruptBatches()
		}
		if u.ring != nil {
			c.corrupt += u.ring.CorruptBatches()
		}
	}
	return c
}

// settle waits until every copy the splitter made is accounted for (the
// oracle has one, the merger discarded the rest as duplicates, or the
// splitter dropped it), so a phase's duplicate count is exact. A drain
// only waits for the first copy of each record; the slower legs' copies
// are still in flight then.
func (t *topology) settle() {
	ring := t.ring()
	if t.splitter == nil || ring == nil {
		return
	}
	deadline := time.Now().Add(time.Second)
	for ring.Dups()+t.splitter.LegDrops() < (replicaN-1)*t.splitter.Seq() && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
}

// sampler reads the public queue gauges every 10 ms.
type sampler struct {
	top  *topology
	stop chan struct{}
	wg   sync.WaitGroup

	queueSum, ringSum float64
	samples           int
}

func startSampler(top *topology) *sampler {
	s := &sampler{top: top, stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tk.C:
				for _, u := range top.units {
					if u.in != nil {
						d, _ := u.in.QueueDepth()
						s.queueSum += float64(d)
					}
					if u.ring != nil {
						d, _ := u.ring.QueueDepth()
						s.ringSum += float64(d)
					}
				}
				s.samples++
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the mean total emit-queue depth
// and the mean reorder-ring depth over its samples.
func (s *sampler) finish() (queueMean, ringMean float64) {
	close(s.stop)
	s.wg.Wait()
	return ratio(s.queueSum, float64(s.samples)), ratio(s.ringSum, float64(s.samples))
}

// unitLatencyHist reads one node's unit-latency histogram (the series
// its production LatencyTracer fills) as cumulative bucket counts, from
// the registry's Prometheus exposition: the public surface an operator
// scrapes.
func unitLatencyHist(reg *obs.Registry) (bounds []float64, cum []float64) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, nil
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "dynriver_unit_latency_seconds_bucket{") {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.LastIndexByte(line, ' ')
		if i < 0 || j < 0 {
			continue
		}
		le := line[i+4:]
		le = le[:strings.IndexByte(le, '"')]
		bound := math.Inf(1)
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = b
		}
		n, err := strconv.ParseFloat(line[j+1:], 64)
		if err != nil {
			continue
		}
		bounds, cum = append(bounds, bound), append(cum, n)
	}
	return bounds, cum
}

// histQuantile estimates a quantile, in seconds, from the growth of a
// cumulative histogram between two scrapes, interpolating inside the
// bucket as obs.Histogram.Quantile does.
func histQuantile(bounds, before, after []float64, q float64) float64 {
	if len(bounds) == 0 || len(before) != len(after) || len(after) != len(bounds) {
		return 0
	}
	total := after[len(after)-1] - before[len(before)-1]
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevCum, lower := 0.0, 0.0
	for i, bound := range bounds {
		c := after[i] - before[i]
		if c >= rank && c > prevCum {
			if math.IsInf(bound, 1) {
				return lower
			}
			return lower + (bound-lower)*(rank-prevCum)/(c-prevCum)
		}
		prevCum = c
		if !math.IsInf(bound, 1) {
			lower = bound
		}
	}
	return lower
}

// unitLatencies scrapes every hosted unit's histogram.
func (t *topology) unitLatencies() map[*unit][2][]float64 {
	out := make(map[*unit][2][]float64, len(t.units))
	for _, u := range t.units {
		b, c := unitLatencyHist(u.node.Obs)
		out[u] = [2][]float64{b, c}
	}
	return out
}

// runTraced is the run the per-layer metrics come from: the traced
// workload, then the isolated probes.
func runTraced(w workload, seed int64, seconds float64) (*Result, error) {
	res, err := traceWorkload(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	probes, err := runProbes(seed, seconds)
	if err != nil {
		return nil, err
	}
	res.addProbes(probes)
	return res, nil
}

// addProbes completes a traced result with the probe metrics and the
// process's memory high-water mark, which the probes' inputs are part of.
func (r *Result) addProbes(probes Metrics) {
	for name, st := range probes {
		r.Metrics[name] = st
	}
	r.Metrics["process.peak_rss_mb"] = single("MB", peakRSSMB())
}

// traceWorkload runs an untraced saturation phase as the overhead
// baseline, then the same workload with the benchmark's decorators on.
func traceWorkload(w workload, seed int64, seconds float64) (*Result, error) {
	res := &Result{Workload: w.name, Seed: seed, Seconds: seconds, Traced: true, Metrics: Metrics{}}
	m := res.Metrics
	total := time.Duration(seconds * float64(time.Second))
	share := func(f float64) time.Duration { return time.Duration(float64(total) * f) }

	// Untraced baseline; the process-level numbers are taken here too, so
	// the decorators' own allocations and clock reads stay out of them.
	in, err := buildInputs(w, seed)
	if err != nil {
		return nil, err
	}
	base, err := setUp(w, in, nil)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	baseSat, err := base.saturate(share(tracedBaseShare), windows)
	runtime.ReadMemStats(&ms1)
	base.finish(res)
	if err != nil {
		return nil, err
	}
	m["process.cpu_user_s_per_mrec"] = medianOf("s/Mrec", baseSat.userPerMrec)
	m["process.cpu_sys_s_per_mrec"] = medianOf("s/Mrec", baseSat.sysPerMrec)
	m["process.allocs_per_rec"] = single("count", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(baseSat.sent)))
	m["process.gc_pause_ms"] = single("ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)

	// Traced session.
	tr := newTracer(w.markEvery, w.name == wlStationPipeline)
	s, err := setUp(w, in, tr)
	if err != nil {
		return nil, err
	}
	snap0, t0 := tr.snapshot(), tr.now()
	sat, err := s.saturate(share(tracedSatShare), windows)
	if err != nil {
		s.top.stop()
		return nil, err
	}
	snap1, t1 := tr.snapshot(), tr.now()

	before := s.top.counters()
	sent0 := s.next
	smp := startSampler(s.top)
	paced, err := s.pace(share(tracedPacedShare), windows)
	queueMean, ringMean := smp.finish()
	if err != nil {
		s.top.stop()
		return nil, err
	}
	t2 := tr.now()
	statMetrics(m, s.top, before, s.top.counters(), float64(s.next-sent0), queueMean, ringMean)
	s.finish(res)
	var reduction float64
	if c := s.top.cutter; c != nil {
		reduction = c.Reduction()
	}
	m["ops.extract.reduction"] = single("ratio", reduction)

	satStats := phaseStats{t: tr, from: snap0, to: snap1, wallNs: float64(share(tracedSatShare))}
	bottleneck := wrapMetrics(m, satStats)

	lateP99, valid := pacedValid(w, paced)
	res.Valid = valid
	m["loadgen.late_p99_ms"] = single("ms", lateP99)
	m["loadgen.offered_per_s"] = single("1/s", paced.offered)
	m["e2e.latency_p50_ms"] = medianOf("ms", windowQuantiles(paced.latency, 0.50))
	all := allSamples(paced.latency)
	m["e2e.latency_p99_ms"] = single("ms", quantile(all, 0.99))
	m["e2e.latency_max_ms"] = single("ms", quantile(all, 1))
	m["e2e.failed_share"] = single("ratio", ratio(float64(res.Failed), float64(res.Attempted)))

	satBudget := tr.budget(t0, t1)
	tracedRate := medianOf("1/s", sat.recordsPerS).Value
	baseRate := medianOf("1/s", baseSat.recordsPerS).Value
	m["trace.overhead_share"] = single("ratio", 1-ratio(tracedRate, baseRate))
	m["trace.budget_coverage_share"] = single("ratio", satBudget.Coverage)
	res.Trace = &Trace{
		MarkEvery:  w.markEvery,
		Saturation: satBudget,
		Paced:      tr.budget(t1, t2),
		Bottleneck: bottleneck,
		WaitShares: satStats.waitShares(),
		Spans:      tr.spans(spanLimit),
	}
	return res, nil
}

// counters is the topology's public counters at one instant, settled so
// that differences over a phase are exact.
type counters struct {
	wire        wireCounters
	unitLatency map[*unit][2][]float64
	dups, drops uint64
}

func (t *topology) counters() counters {
	t.settle()
	c := counters{wire: t.wire(), unitLatency: t.unitLatencies()}
	if ring := t.ring(); ring != nil {
		c.dups = ring.Dups()
	}
	if t.splitter != nil {
		c.drops = t.splitter.LegDrops()
	}
	return c
}

// statMetrics fills in the metrics read from public counters and gauges
// over the paced phase (between the two counter snapshots).
func statMetrics(m Metrics, top *topology, before, after counters, pacedSent, queueMean, ringMean float64) {
	records := float64(after.wire.records - before.wire.records)
	m["record.batch_fill"] = single("count", ratio(records, float64(after.wire.batches-before.wire.batches)))
	m["record.wire_bytes_per_rec"] = single("count", ratio(float64(after.wire.bytes-before.wire.bytes), records))
	m["record.corrupt_batches"] = single("count", float64(after.wire.corrupt))
	m["pipeline.queue_depth_mean"] = single("count", queueMean)
	var peak int
	var p50, p99 float64 // of the worst hosted unit
	for _, u := range top.units {
		if u.in != nil && u.in.QueuePeak() > peak {
			peak = u.in.QueuePeak()
		}
		bounds, was, is := after.unitLatency[u][0], before.unitLatency[u][1], after.unitLatency[u][1]
		p50 = math.Max(p50, histQuantile(bounds, was, is, 0.50))
		p99 = math.Max(p99, histQuantile(bounds, was, is, 0.99))
	}
	m["pipeline.queue_peak"] = single("count", float64(peak))
	m["pipeline.unit_latency_p50_us"] = single("us", p50*1e6)
	m["pipeline.unit_latency_p99_us"] = single("us", p99*1e6)

	// The fan-in ring belongs to the replica layer behind a splitter and
	// to the shard layer behind a partitioner; the other layer reads zero.
	var dupsPerRec, legDrops, replSkipped, replRing, shardSkipped, shardRing, legSkew float64
	if ring := top.ring(); ring != nil && top.splitter != nil {
		dupsPerRec = ratio(float64(after.dups-before.dups), pacedSent)
		legDrops = float64(after.drops - before.drops)
		replSkipped, replRing = float64(ring.Skipped()), ringMean
	} else if ring != nil {
		shardSkipped, shardRing = float64(ring.Skipped()), ringMean
	}
	if p := top.partitioner; p != nil {
		var maxLeg, sum float64
		legs := p.LegRecords()
		for _, n := range legs {
			maxLeg = math.Max(maxLeg, float64(n))
			sum += float64(n)
		}
		legSkew = ratio(maxLeg, sum/float64(len(legs)))
	}
	m["replica.dups_per_rec"] = single("count", dupsPerRec)
	m["replica.leg_drops"] = single("count", legDrops)
	m["replica.skipped"] = single("count", replSkipped)
	m["replica.ring_depth_mean"] = single("count", replRing)
	m["shard.skipped"] = single("count", shardSkipped)
	m["shard.ring_depth_mean"] = single("count", shardRing)
	m["shard.leg_skew"] = single("ratio", legSkew)
}

// wrapMetrics fills in the metrics taken from the decorators' spans over
// the saturation slice and names the bottleneck unit.
func wrapMetrics(m Metrics, sat phaseStats) (bottleneck string) {
	m["pipeline.sink_consume_ns_per_rec"] = single("ns", sat.selfPerCall("pipeline.sink_consume"))
	m["replica.splitter_consume_ns_per_rec"] = single("ns", sat.selfPerCall("replica.splitter_consume"))
	m["shard.partitioner_consume_ns_per_rec"] = single("ns", sat.selfPerCall("shard.partitioner_consume"))
	for _, op := range opNames {
		m["ops."+op+".self_ns_per_rec"] = single("ns", sat.selfPerCall("ops."+op))
	}
	m["ops.extract.busy_share"] = single("ratio", sat.busyShare(segExtract))
	m["ops.spectral.busy_share"] = single("ratio", sat.busyShare(segSpectr))
	m["loadgen.self_ns_per_rec"] = single("ns", sat.selfPerCall("loadgen"))
	bottleneck, waitShare := sat.bottleneck()
	m["pipeline.source_wait_share"] = single("ratio", waitShare)
	return bottleneck
}

// spanLimit caps the spans written per boundary; the budget tables use
// every marker regardless.
const spanLimit = 200

func addFailures(a, b failures) failures {
	return failures{
		Missing:    a.Missing + b.Missing,
		Duplicated: a.Duplicated + b.Duplicated,
		Disordered: a.Disordered + b.Disordered,
		Corrupt:    a.Corrupt + b.Corrupt,
		Wrong:      a.Wrong + b.Wrong,
	}
}
