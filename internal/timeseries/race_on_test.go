//go:build race

package timeseries

// Allocation pins run only without the race detector, like the pool-backed
// pins elsewhere in the tree.
const raceEnabled = true
