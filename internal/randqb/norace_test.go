//go:build !race

package randqb

const raceEnabled = false
