//go:build race

package repro

// The race detector makes sync.Pool randomly drop Puts to expose unsound
// reuse, so pooled paths allocate under -race by design; allocation
// assertions on pool-backed paths are skipped there.
const raceEnabled = true
