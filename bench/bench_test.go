package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// tinySeconds is the measured time per run in the test: long enough for
// every window to see records, short enough for plain `go test`.
const tinySeconds = 0.5

// TestTinyPass runs every workload once untraced and once traced at tiny
// scale and checks the benchmark's contract with BENCHMARK.json: every
// metric it names is emitted with its unit, nothing fails the oracle, and
// the layer predictions hold.
func TestTinyPass(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	// The probes do not depend on the workload: run them here for all of
	// them, twice, because their counts are part of the ledger only if
	// they repeat exactly for one seed and run length.
	probes, err := runProbes(1, tinySeconds)
	if err != nil {
		t.Fatal(err)
	}
	again, err := runProbes(1, tinySeconds)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"meso.distance_evals_per_classify", "meso.spheres"} {
		if a, b := probes[name].Value, again[name].Value; a != b || a == 0 {
			t.Errorf("%s = %v then %v, want equal and nonzero", name, a, b)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not one the benchmark runs", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := runUntraced(w, 1, tinySeconds)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, res, spec.EndToEnd)
			traced, err := traceWorkload(w, 1, tinySeconds)
			if err != nil {
				t.Fatal(err)
			}
			traced.addProbes(probes)
			checkRun(t, traced, spec.PerLayer)
			if cov := traced.Metrics["trace.budget_coverage_share"].Value; cov < 0.9 || cov > 1.1 {
				t.Errorf("budget covers %.3f of the markers' time in system, want within 0.10 of 1", cov)
			}
			if w.name == wlReplicaGroup {
				// Three legs: two copies of every record are deduplicated,
				// except those the splitter dropped toward a lagging leg.
				d, drops := traced.Metrics["replica.dups_per_rec"].Value, traced.Metrics["replica.leg_drops"].Value
				if d > 2 || d <= 1 || (drops == 0 && d != 2) {
					t.Errorf("replica.dups_per_rec = %v with %v leg drops, want exactly 2 less the dropped share", d, drops)
				}
			}
			// The layer predictions: fan-out layers cost nothing where the
			// workload has no fan-out, operators nothing where it hosts none.
			for layer, on := range map[string]string{
				"replica.splitter_consume_ns_per_rec":  wlReplicaGroup,
				"shard.partitioner_consume_ns_per_rec": wlShardGroup,
			} {
				if got := traced.Metrics[layer].Value; (got != 0) != (w.name == on) {
					t.Errorf("%s = %v on %s; it must be nonzero on %s only", layer, got, w.name, on)
				}
			}
			for _, op := range opNames {
				runs := op == "relay"
				if w.name == wlStationPipeline {
					runs = !runs
				}
				if got := traced.Metrics["ops."+op+".self_ns_per_rec"].Value; (got != 0) != runs {
					t.Errorf("ops.%s.self_ns_per_rec = %v on %s, want nonzero: %v", op, got, w.name, runs)
				}
			}
		})
	}
}

// checkRun asserts a run emitted every named metric with its unit and
// that the oracle found nothing wrong.
func checkRun(t *testing.T, res *Result, want []metricSpec) {
	t.Helper()
	if (res.Failed != 0 || res.Failures.total() != 0) && !raceEnabled {
		t.Errorf("%d of %d records failed: %+v", res.Failed, res.Attempted, res.Failures)
	}
	if res.Attempted == 0 {
		t.Error("no records attempted")
	}
	for _, ms := range want {
		got, ok := res.Metrics[ms.Name]
		if !ok {
			t.Errorf("metric %s is in BENCHMARK.json but was not emitted", ms.Name)
			continue
		}
		if got.Unit != ms.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", ms.Name, got.Unit, ms.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		for name := range res.Metrics {
			found := false
			for _, ms := range want {
				found = found || ms.Name == name
			}
			if !found {
				t.Errorf("metric %s is emitted but not in BENCHMARK.json", name)
			}
		}
	}
}

// TestCompare drives -compare over result files: identical sides are the
// same, a slowed side is worse, a noisy side is unresolved.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, jitter []float64) string {
		path := filepath.Join(dir, name)
		var results []*Result
		for _, w := range workloads {
			for _, j := range jitter {
				results = append(results, &Result{Workload: w.name, Valid: true, Metrics: Metrics{
					"records_per_s":  single("1/s", 1000*j/scale),
					"latency_p95_ms": single("ms", 8*j*scale),
					"cpu_s_per_mrec": single("s/Mrec", 4*j*scale),
					"setup_s":        single("s", 0.2*j*scale),
				}})
			}
		}
		if err := appendResults(path, results); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1, 1.01, 0.99, 1.005, 0.995}
	base := write("a.json", 1, steady)
	var out bytes.Buffer
	if err := compareFiles(base, write("same.json", 1.02, steady), &out); err != nil {
		t.Errorf("2%% apart: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "16 same, 0 worse, 0 unresolved") {
		t.Errorf("2%% apart must be all same:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(base, write("slow.json", 2, steady), &out); err == nil {
		t.Errorf("a side twice as slow must fail the comparison:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(base, write("noisy.json", 1, []float64{0.5, 1, 1.5, 2, 0.7}), &out); err != nil {
		t.Errorf("noise alone must not read as worse: %v", err)
	}
	if !strings.Contains(out.String(), "0 same, 0 worse, 16 unresolved") {
		t.Errorf("a side noisier than the bound must be unresolved:\n%s", out.String())
	}
}
