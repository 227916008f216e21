//go:build race

package sparse

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation counts of pooled kernels mean nothing.
const raceEnabled = true
