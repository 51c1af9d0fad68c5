//go:build !race

package sw

const raceEnabled = false
