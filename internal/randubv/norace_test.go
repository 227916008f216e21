//go:build !race

package randubv

const raceEnabled = false
