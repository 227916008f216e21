//go:build race

package mat

// raceEnabled reports a -race build, where sync.Pool drops items at
// random, so pooled paths allocate.
const raceEnabled = true
