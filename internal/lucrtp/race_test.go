//go:build race

package lucrtp

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and byte counts of pooled kernels mean nothing.
const raceEnabled = true
