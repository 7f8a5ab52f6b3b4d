// Package obs is the control plane's observability layer: a
// dependency-free metrics registry (counters, gauges, histograms with
// atomic hot paths, rendered in the Prometheus text exposition format)
// and a bounded ring-buffer event log every control-plane transition is
// appended to and streamed from. It deliberately implements the small
// subset of a metrics client the coordinator and node agents need, so
// the repo stays free of external dependencies.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe on
// a nil receiver (they no-op), so optional instrumentation handles can be
// threaded through without nil checks on the hot path.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The value is stored as
// float64 bits in one atomic word; like Counter it is nil-receiver safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed cumulative buckets, tracking
// the total sum and count — enough for rate and quantile estimates on the
// scrape side. Observe and ObserveN are lock-free; nil receivers no-op.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe folds one observation into the histogram.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN folds n observations of the same value v into the histogram
// at the cost of one: one bucket search, two atomic adds and one sum
// update, whatever n is.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(n)
	h.count.Add(n)
	add := v * float64(n)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+add)) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) from the
// bucket counts, linearly interpolating inside the bucket the rank falls
// in — the same estimate a Prometheus histogram_quantile would compute
// from a scrape, available in-process. It returns 0 with no
// observations; ranks in the overflow (+Inf) bucket clamp to the top
// bound. The read is lock-free and may race concurrent Observes; the
// estimate is still within one observation of exact.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, bound := range h.bounds {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			return lower + (bound-lower)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	// The rank lands in the overflow bucket: there is no upper bound to
	// interpolate toward, so report the top finite bound.
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// DefBuckets are the default histogram bounds, in seconds — tuned for
// control-plane latencies (fsync, reconcile) from tens of microseconds to
// seconds.
var DefBuckets = []float64{
	.00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5,
}

// LatencyBuckets are finer-grained bounds, in seconds, for data-plane
// record latencies: per-unit ingest-to-sink times sit in the microsecond
// range on an idle pipeline and climb through milliseconds as queues
// build, so the low decades get extra resolution that DefBuckets lacks.
var LatencyBuckets = []float64{
	.000005, .00001, .000025, .00005, .0001, .00025, .0005, .001, .0025,
	.005, .01, .025, .05, .1, .25, .5, 1, 2.5,
}

// family is one named metric and its label-distinguished series.
type family struct {
	name    string
	typ     string // "counter", "gauge", "histogram"
	help    string
	buckets []float64
	series  map[string]*series // keyed by rendered label block
}

// series is one labelset's live metric handle.
type series struct {
	labels string // rendered `{k="v",...}`, "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry names and renders metrics. Lookup (Counter/Gauge/Histogram)
// takes a mutex, so callers on hot paths should resolve their handles
// once and update the returned Counter/Gauge/Histogram, whose operations
// are atomic. The zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string // registration order of family names
	hooks []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// OnGather registers a hook run (in order) at the start of every
// WritePrometheus call — the place pull-model gauges are filled from live
// state (a cluster snapshot, a node's segment stats) at scrape time.
func (r *Registry) OnGather(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// renderLabels canonicalizes variadic key-value pairs into a Prometheus
// label block. Pairs are sorted by key so the same labelset always maps
// to the same series regardless of argument order.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		labels = append(labels, "")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString("=")
		b.WriteString(strconv.Quote(p.v))
	}
	b.WriteByte('}')
	return b.String()
}

// lookup finds or creates the series for (name, labels) under the given
// type. A name already registered under a different type returns nil —
// the nil-safe handles make that a silent no-op rather than a panic.
func (r *Registry) lookup(name, typ string, buckets []float64, labels []string) *series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, typ: typ, buckets: buckets, series: make(map[string]*series)}
		r.fams[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		return nil
	}
	key := renderLabels(labels)
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		switch typ {
		case "counter":
			s.c = &Counter{}
		case "gauge":
			s.g = &Gauge{}
		case "histogram":
			h := &Histogram{bounds: append([]float64(nil), f.buckets...)}
			h.counts = make([]atomic.Uint64, len(h.bounds)+1)
			s.h = h
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter named name with the given label key-value
// pairs, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if s := r.lookup(name, "counter", nil, labels); s != nil {
		return s.c
	}
	return nil
}

// Gauge returns the gauge named name with the given label key-value
// pairs, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if s := r.lookup(name, "gauge", nil, labels); s != nil {
		return s.g
	}
	return nil
}

// Histogram returns the histogram named name with the given label
// key-value pairs, creating it on first use with the given bucket upper
// bounds (nil selects DefBuckets). Buckets are fixed by the first call.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	if s := r.lookup(name, "histogram", buckets, labels); s != nil {
		return s.h
	}
	return nil
}

// Help attaches a HELP line to a metric family (created lazily as a
// gauge if it does not exist yet — the type is fixed by first data use).
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.fams[name]; f != nil {
		f.help = text
	}
}

// DropPrefix removes every family whose name starts with prefix. Gather
// hooks that recompute a rollup from a snapshot use it to drop series for
// entities (nodes, pipelines) that no longer exist.
func (r *Registry) DropPrefix(prefix string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.order[:0]
	for _, name := range r.order {
		if strings.HasPrefix(name, prefix) {
			delete(r.fams, name)
			continue
		}
		kept = append(kept, name)
	}
	r.order = kept
}

// WritePrometheus runs the gather hooks, then renders every family in the
// Prometheus text exposition format. Families render in registration
// order and series in sorted label order, so output is deterministic and
// diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.fams[name]
		if f == nil {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			var err error
			switch f.typ {
			case "counter":
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case "gauge":
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.g.Value()))
			case "histogram":
				err = writeHistogram(w, f.name, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative _bucket lines
// (ending in le="+Inf"), then _sum and _count.
func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.h
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, mergeLabel(s.labels, "le", formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(s.labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, h.Count())
	return err
}

// mergeLabel appends one extra label (the histogram le) to a rendered
// label block.
func mergeLabel(labels, k, v string) string {
	extra := k + "=" + strconv.Quote(v)
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// formatFloat renders a metric value the way Prometheus text format
// expects: shortest round-trip representation, integral values without
// an exponent.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
