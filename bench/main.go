// Command bench is the repo's end-to-end benchmark: it stands up real
// Dynamic River topologies in one process over loopback TCP, drives each
// from a seeded load generator, checks every output against an oracle and
// prints every metric by name and unit. See README.md in this directory
// for the metric catalogue and BENCHMARK.json at the repo root for the
// regression bounds.
//
//	go run -C bench . -seed 1                      all workloads, end-to-end metrics
//	go run -C bench . -seed 1 -trace out.json      traced runs: per-layer metrics, budget, spans
//	go run -C bench . -seed 1 -out a.json          also append the results to a.json
//	go run -C bench . -compare a.json b.json       same / worse / unresolved per metric and workload
//	go run -C bench . -workload relay_chain -seed 7 -seconds 25 -trace 0
//
// The last form is the driver's: one workload, and the last line of
// standard output is one JSON object {correct, attempted, failed,
// metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// defaultSeconds is the measured time per workload run; BENCHMARK.json's
// run_seconds carries the same number for the driver.
const defaultSeconds = 25

func main() {
	var (
		wlName  = flag.String("workload", "", "run only this workload and end with the driver's one-line JSON result")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds per workload run")
		trace   = flag.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; a path: traced run, and write budget tables and spans there")
		out     = flag.String("out", "", "append each workload's result to this file, one JSON object per line, for -compare")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments and exit")
	)
	flag.Parse()
	if err := run(*wlName, *seed, *seconds, *trace, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(wlName string, seed int64, seconds float64, trace, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(args[0], args[1], os.Stdout)
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	todo := workloads
	if wlName != "" {
		w, ok := workloadByName(wlName)
		if !ok {
			return fmt.Errorf("unknown workload %q", wlName)
		}
		todo = []workload{w}
	}
	traced := trace != "0" && trace != ""
	var results []*Result
	for _, w := range todo {
		var res *Result
		var err error
		if traced {
			res, err = runTraced(w, seed, seconds)
		} else {
			res, err = runUntraced(w, seed, seconds)
		}
		if err != nil {
			return err
		}
		results = append(results, res)
		printResult(os.Stdout, res)
	}
	if traced && trace != "1" {
		if err := writeJSON(trace, results); err != nil {
			return err
		}
	}
	if out != "" {
		if err := appendResults(out, results); err != nil {
			return err
		}
	}
	failed := false
	for _, res := range results {
		failed = failed || res.Failed > 0
	}
	if wlName != "" {
		// The driver's contract: one JSON object as the last line.
		if err := printDriverLine(os.Stdout, results[0]); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("oracle found failed records; see failures above")
	}
	return nil
}

// printResult prints every metric of one run by name and unit, with the
// quartiles and sample count behind each median.
func printResult(w *os.File, res *Result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  %s\n", res.Workload, res.Seed, res.Seconds, mode)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := res.Metrics[name]
		fmt.Fprintf(w, "  %-40s %16.6g %-8s q1=%-12.6g q3=%-12.6g n=%d\n", name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d failed_share=%g %+v\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Failures)
	if !res.Valid {
		fmt.Fprintf(w, "  INVALID open loop: the generator ran late or the backlog was still growing; latencies are not comparable\n")
	}
	if t := res.Trace; t != nil {
		fmt.Fprintf(w, "  bottleneck unit: %s (source wait shares %v)\n", t.Bottleneck, t.WaitShares)
		printBudget(w, "saturation phase", t.Saturation)
		printBudget(w, "paced phase", t.Paced)
	}
}

func printBudget(w *os.File, title string, b Budget) {
	fmt.Fprintf(w, "  time budget, %s: %d markers, mean time in system %.1f us, coverage %.3f\n",
		title, b.Markers, b.E2EUs, b.Coverage)
	for _, r := range b.Rows {
		fmt.Fprintf(w, "    %-32s %12.1f us %6.1f%%\n", r.Layer, r.MeanUs, r.Share*100)
	}
}

// printDriverLine prints the one-line result the driver parses: value and
// unit per metric, all digits kept.
func printDriverLine(w *os.File, res *Result) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]mv{}}
	for name, s := range res.Metrics {
		line.Metrics[name] = mv{Value: s.Value, Unit: s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result line: %w", err)
	}
	fmt.Fprintln(w, string(b))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// appendResults appends one JSON line per result, without the spans.
func appendResults(path string, results []*Result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open results file: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, res := range results {
		slim := *res
		slim.Trace = nil
		if err := enc.Encode(&slim); err != nil {
			_ = f.Close()
			return fmt.Errorf("write results: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close results file: %w", err)
	}
	return nil
}
