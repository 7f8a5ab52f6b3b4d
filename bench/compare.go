package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparer and the test read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent
// (the benchmark runs from the repo root or from its own directory).
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			lastErr = err
			continue
		}
		var spec benchSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
		}
		return &spec, nil
	}
	return nil, fmt.Errorf("find BENCHMARK.json: %w", lastErr)
}

// readResults reads a file written with -out: one Result per line.
func readResults(path string) ([]*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open results: %w", err)
	}
	defer f.Close()
	var out []*Result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		out = append(out, &r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return out, nil
}

// side is one file's runs of one (metric, workload) pair.
type side struct {
	vals    []float64
	within  float64 // a lone run's own window spread, (q3-q1)/median
	invalid bool    // some run's open loop was not valid
}

func gather(results []*Result, workload, metric string) side {
	var s side
	for _, r := range results {
		st, ok := r.Metrics[metric]
		if r.Workload != workload || r.Traced || !ok {
			continue
		}
		s.vals = append(s.vals, st.Value)
		s.within = ratio(st.Q3-st.Q1, st.Value)
		s.invalid = s.invalid || !r.Valid
	}
	return s
}

// spread is the run-to-run noise as a share of the median: the
// interquartile range over four or more runs, the full range over two or
// three, and a lone run's own window spread.
func (s side) spread() float64 {
	v := sortedCopy(s.vals)
	med := quantile(v, 0.5)
	switch {
	case len(v) >= 4:
		return ratio(quantile(v, 0.75)-quantile(v, 0.25), med)
	case len(v) >= 2:
		return ratio(v[len(v)-1]-v[0], med)
	}
	return s.within
}

// Verdicts of one comparison row.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares b against a for one metric. A row is unresolved when
// either side's spread exceeds the bound (the difference cannot be told
// from noise) or, for a paced-phase metric, when a run's open loop was
// invalid; worse when b's median is worse than a's by more than the bound.
func verdict(spec metricSpec, a, b side) (string, float64) {
	medA, medB := quantile(sortedCopy(a.vals), 0.5), quantile(sortedCopy(b.vals), 0.5)
	change := ratio(medB-medA, medA)
	if spec.Better == "higher" {
		change = -change
	}
	paced := spec.Name == "latency_p95_ms"
	switch {
	case a.spread() > spec.Bound || b.spread() > spec.Bound, paced && (a.invalid || b.invalid):
		return verdictUnresolved, change
	case change > spec.Bound:
		return verdictWorse, change
	}
	return verdictSame, change
}

// compareFiles reports every (end-to-end metric, workload) row of two
// -out files as same, worse or unresolved under BENCHMARK.json's bounds,
// and fails if any row is worse.
func compareFiles(pathA, pathB string, w io.Writer) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	ra, err := readResults(pathA)
	if err != nil {
		return err
	}
	rb, err := readResults(pathB)
	if err != nil {
		return err
	}
	counts := map[string]int{}
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "worse by", "spread a", "spread b", "bound", "verdict")
	names := make([]string, 0, len(spec.Workloads))
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, ms := range spec.EndToEnd {
			a, b := gather(ra, wl, ms.Name), gather(rb, wl, ms.Name)
			if len(a.vals) == 0 || len(b.vals) == 0 {
				fmt.Fprintf(w, "%-18s %-16s missing on one side\n", wl, ms.Name)
				counts[verdictUnresolved]++
				continue
			}
			v, change := verdict(ms, a, b)
			counts[v]++
			fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %+8.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl, ms.Name, quantile(sortedCopy(a.vals), 0.5), quantile(sortedCopy(b.vals), 0.5),
				change*100, a.spread()*100, b.spread()*100, ms.Bound*100, v)
		}
	}
	fmt.Fprintf(w, "%d same, %d worse, %d unresolved\n", counts[verdictSame], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return fmt.Errorf("%d rows are worse than their bound allows", counts[verdictWorse])
	}
	return nil
}
