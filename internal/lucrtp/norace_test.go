//go:build !race

package lucrtp

const raceEnabled = false
