package main

import (
	"math"
	"sort"
)

// Stat is one reported metric: Value is the median of N window values (or
// of N raw samples), Q1 and Q3 their quartiles. A count that is not a
// window median (a total, a peak) has N == 1 and Q1 == Q3 == Value.
type Stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// Metrics maps metric name to its value for one workload run.
type Metrics map[string]Stat

// quantile returns the q-quantile of sorted by linear interpolation
// between order statistics (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns vals sorted ascending without touching the input.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// medianOf summarizes window values (or samples) as median and quartiles.
func medianOf(unit string, vals []float64) Stat {
	s := sortedCopy(vals)
	return Stat{
		Value: quantile(s, 0.5),
		Unit:  unit,
		Q1:    quantile(s, 0.25),
		Q3:    quantile(s, 0.75),
		N:     len(s),
	}
}

// single reports one plain number (a total, a count, a peak).
func single(unit string, v float64) Stat {
	return Stat{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// ratio returns a/b, or 0 when b is 0 (an idle layer reports zero cost,
// not NaN, so the JSON stays valid).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
