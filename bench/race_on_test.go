//go:build race

package main

// The race detector slows the pipeline several times over, so the paced
// phase's frozen rates overload it, and an overloaded fan-in ring skips
// records once the legs' skew outgrows its window. Under -race the test
// still drives every path (that is what the detector needs) but does not
// hold the run to zero failures.
const raceEnabled = true
