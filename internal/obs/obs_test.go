package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramRender(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 3; i++ {
		reg.Counter("app_requests_total", "handler", "status", "code", "200").Inc()
	}
	for i := 0; i < 2; i++ { // same series, swapped label order
		reg.Counter("app_requests_total", "code", "200", "handler", "status").Inc()
	}
	reg.Help("app_requests_total", "requests served")
	reg.Gauge("app_queue_depth", "node", "a").Set(7)
	reg.Gauge("app_queue_depth", "node", "b").Set(2.5)
	h := reg.Histogram("app_latency_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP app_requests_total requests served",
		"# TYPE app_requests_total counter",
		`app_requests_total{code="200",handler="status"} 5`,
		"# TYPE app_queue_depth gauge",
		`app_queue_depth{node="a"} 7`,
		`app_queue_depth{node="b"} 2.5`,
		"# TYPE app_latency_seconds histogram",
		`app_latency_seconds_bucket{le="0.1"} 1`,
		`app_latency_seconds_bucket{le="1"} 2`,
		`app_latency_seconds_bucket{le="+Inf"} 3`,
		"app_latency_seconds_sum 5.55",
		"app_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryHandleIdentityAndTypeMismatch(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("x_total")
	c2 := reg.Counter("x_total")
	if c1 != c2 {
		t.Fatal("same name+labels must return the same counter handle")
	}
	if g := reg.Gauge("x_total"); g != nil {
		t.Fatal("registering a gauge under a counter name must return nil")
	}
	// Nil handles must be safe to use.
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	nc.Inc()
	ng.Set(1)
	nh.Observe(1)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 {
		t.Fatal("nil handles must read zero")
	}
}

func TestDropPrefix(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("roll_node_depth", "node", "a").Set(1)
	reg.Gauge("keep_epoch").Set(9)
	reg.DropPrefix("roll_")
	reg.Gauge("roll_node_depth", "node", "b").Set(4)
	var b strings.Builder
	_ = reg.WritePrometheus(&b)
	out := b.String()
	if strings.Contains(out, `node="a"`) {
		t.Fatalf("dropped series survived:\n%s", out)
	}
	if !strings.Contains(out, `roll_node_depth{node="b"} 4`) || !strings.Contains(out, "keep_epoch 9") {
		t.Fatalf("recreated/kept series missing:\n%s", out)
	}
}

func TestRegistryConcurrentHotPath(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hot_total")
	h := reg.Histogram("hot_seconds", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

// TestHistogramQuantile exercises the in-process quantile estimate:
// interpolation inside a bucket, the empty histogram, and overflow
// clamping to the top bound.
func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %g", got)
	}
	reg := NewRegistry()
	h := reg.Histogram("q_seconds", []float64{1, 2, 4})
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %g", got)
	}
	// 100 observations uniform in (0, 1]: p50 interpolates to ~0.5 inside
	// the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if got := h.Quantile(0.5); got < 0.4 || got > 0.6 {
		t.Errorf("p50 = %g, want ~0.5", got)
	}
	if got := h.Quantile(1); got < 0.99 || got > 1.01 {
		t.Errorf("p100 = %g, want ~1", got)
	}
	// Push the tail into the overflow bucket: high quantiles clamp to the
	// top finite bound rather than inventing a value.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	if got := h.Quantile(0.99); got != 4 {
		t.Errorf("overflow quantile = %g, want top bound 4", got)
	}
}

// TestHistogramObserveN: folding n observations of one value at once
// leaves the same buckets, count and sum as n single observations, and
// n == 0 (or a nil histogram) changes nothing.
func TestHistogramObserveN(t *testing.T) {
	var nilH *Histogram
	nilH.ObserveN(1, 5) // must not panic
	reg := NewRegistry()
	bounds := []float64{.001, .01, .1}
	for _, tc := range []struct {
		v float64
		n uint64
	}{{0.0005, 1}, {0.003, 64}, {0.1, 7}, {0.25, 3}, {0, 0}} {
		bulk := reg.Histogram("bulk_seconds", bounds)
		single := reg.Histogram("single_seconds", bounds)
		bulk.ObserveN(tc.v, tc.n)
		for i := uint64(0); i < tc.n; i++ {
			single.Observe(tc.v)
		}
		for i := range bulk.counts {
			if b, s := bulk.counts[i].Load(), single.counts[i].Load(); b != s {
				t.Errorf("ObserveN(%g, %d): bucket %d holds %d, single observations %d", tc.v, tc.n, i, b, s)
			}
		}
		if b, s := bulk.Count(), single.Count(); b != s || b != tc.n {
			t.Errorf("ObserveN(%g, %d): count %d, single observations %d", tc.v, tc.n, b, s)
		}
		if b, s := bulk.Sum(), single.Sum(); math.Abs(b-s) > 1e-12*math.Max(1, s) {
			t.Errorf("ObserveN(%g, %d): sum %g, single observations %g", tc.v, tc.n, b, s)
		}
		reg.DropPrefix("bulk_")
		reg.DropPrefix("single_")
	}
}

// TestHistogramQuantileDuringObserveN reads quantiles while another
// goroutine folds bulk observations in; under -race this pins that the
// read side needs no lock, and every estimate stays inside the bounds.
func TestHistogramQuantileDuringObserveN(t *testing.T) {
	h := NewRegistry().Histogram("live_seconds", LatencyBuckets)
	const writes = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writes; i++ {
			h.ObserveN(float64(i%50)/1e4, uint64(1+i%64))
		}
	}()
	top := LatencyBuckets[len(LatencyBuckets)-1]
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for _, q := range []float64{0.5, 0.99} {
			if got := h.Quantile(q); got < 0 || got > top {
				t.Fatalf("p%g = %g outside [0, %g] during ObserveN", 100*q, got, top)
			}
		}
	}
	var want uint64
	for i := 0; i < writes; i++ {
		want += uint64(1 + i%64)
	}
	if got := h.Count(); got != want {
		t.Fatalf("count %d after the writer finished, want %d", got, want)
	}
}

func TestEventLogRingAndSince(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 6; i++ {
		e := l.Append(Event{Type: EventPlace, Unit: fmt.Sprintf("u%d", i)})
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", e.Seq, i+1)
		}
		if e.TimeMS == 0 {
			t.Fatal("append must stamp TimeMS")
		}
	}
	if l.next-1 != 6 {
		t.Fatalf("LastSeq = %d, want 6", l.next-1)
	}
	all := l.Since(0, nil)
	if len(all) != 4 {
		t.Fatalf("ring of 4 retained %d events", len(all))
	}
	if all[0].Seq != 3 || all[3].Seq != 6 {
		t.Fatalf("retained window = [%d, %d], want [3, 6]", all[0].Seq, all[3].Seq)
	}
	from5 := l.Since(4, nil)
	if len(from5) != 2 || from5[0].Unit != "u4" {
		t.Fatalf("Since(4) = %+v", from5)
	}
	only := l.Since(0, func(e Event) bool { return e.Unit == "u5" })
	if len(only) != 1 || only[0].Seq != 6 {
		t.Fatalf("filtered Since = %+v", only)
	}
}

func TestEventLogSubscribe(t *testing.T) {
	l := NewEventLog(16)
	sub := l.Subscribe(2)
	defer l.Unsubscribe(sub)
	l.Append(Event{Type: EventRegister, Node: "n1"})
	l.Append(Event{Type: EventFailover, Node: "n1"})
	l.Append(Event{Type: EventReplace, Unit: "s1"}) // overflows the buffer of 2
	if got := (<-sub.C).Type; got != EventRegister {
		t.Fatalf("first delivery = %s", got)
	}
	if got := (<-sub.C).Type; got != EventFailover {
		t.Fatalf("second delivery = %s", got)
	}
	if sub.dropped.Load() != 1 {
		t.Fatalf("dropped = %d, want 1", sub.dropped.Load())
	}
	l.Unsubscribe(sub)
	l.Append(Event{Type: EventPlace})
	select {
	case e := <-sub.C:
		t.Fatalf("unsubscribed follower received %+v", e)
	default:
	}
}

// TestEventLogSlowSubscriberDropCounter pins the slow-watcher contract:
// a stalled subscriber costs drops counted on its DropCounter metric,
// never a blocked Append, and a healthy subscriber on the same log is
// unaffected.
func TestEventLogSlowSubscriberDropCounter(t *testing.T) {
	reg := NewRegistry()
	l := NewEventLog(16)
	slow := l.Subscribe(1)
	slow.DropCounter = reg.Counter("events_dropped_total", "subscriber", "slow")
	healthy := l.Subscribe(16)
	defer l.Unsubscribe(slow)
	defer l.Unsubscribe(healthy)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			l.Append(Event{Type: EventPlace})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Append blocked on a stalled subscriber")
	}
	// The slow subscriber got 1 buffered event and dropped the other 9.
	if got := slow.dropped.Load(); got != 9 {
		t.Errorf("slow.dropped.Load() = %d, want 9", got)
	}
	if got := reg.Counter("events_dropped_total", "subscriber", "slow").Value(); got != 9 {
		t.Errorf("drop counter = %d, want 9", got)
	}
	for i := 0; i < 10; i++ {
		<-healthy.C
	}
	if got := healthy.dropped.Load(); got != 0 {
		t.Errorf("healthy subscriber dropped %d", got)
	}
}

// TestEventSchemaGolden locks the Event wire schema: `dynriver events
// -json` output and watch_events frames are scripted against these exact
// field names, so a rename here is a breaking protocol change.
func TestEventSchemaGolden(t *testing.T) {
	e := Event{
		Seq: 42, TimeMS: 1700000000000, Type: EventAnomaly,
		Pipeline: "pA", Unit: "pA:s1-relay/r2", Node: "host-b",
		Addr: "127.0.0.1:7201", Metric: "queue_depth", Value: 212,
		Score: 57.5, Detail: "z-score over threshold",
	}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"seq":42,"time_ms":1700000000000,"type":"anomaly",` +
		`"pipeline":"pA","unit":"pA:s1-relay/r2","node":"host-b",` +
		`"addr":"127.0.0.1:7201","metric":"queue_depth","value":212,` +
		`"score":57.5,"detail":"z-score over threshold"}`
	if string(raw) != golden {
		t.Fatalf("event schema drifted:\n got %s\nwant %s", raw, golden)
	}
	// Sparse events omit optional fields entirely.
	raw, _ = json.Marshal(Event{Seq: 1, TimeMS: 5, Type: EventRegister, Node: "n"})
	const sparse = `{"seq":1,"time_ms":5,"type":"register","node":"n"}`
	if string(raw) != sparse {
		t.Fatalf("sparse event schema drifted:\n got %s\nwant %s", raw, sparse)
	}
	// Remediation events (v7) append the phase field after the v6 schema,
	// so v6 scripts parse v7 streams unchanged.
	raw, _ = json.Marshal(Event{
		Seq: 7, TimeMS: 9, Type: EventRemediation, Node: "host-b",
		Detail: "cooldown", Phase: RemPhaseSuppressed,
	})
	const remed = `{"seq":7,"time_ms":9,"type":"remediation","node":"host-b",` +
		`"detail":"cooldown","phase":"suppressed"}`
	if string(raw) != remed {
		t.Fatalf("remediation event schema drifted:\n got %s\nwant %s", raw, remed)
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("demo_up").Set(1)
	gathered := false
	reg.OnGather(func() { gathered = true; reg.Gauge("demo_scrapes").Set(1) })
	addr, stop, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stop() }()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if !gathered {
		t.Fatal("scrape did not run the gather hook")
	}
	out := string(body)
	if !strings.Contains(out, "demo_up 1") || !strings.Contains(out, "demo_scrapes 1") {
		t.Fatalf("scrape output missing gauges:\n%s", out)
	}
	resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
}
