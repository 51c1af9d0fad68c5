//go:build race

package sw

// raceEnabled reports that this binary was built with the race detector,
// which slows single-goroutine arithmetic tests without adding coverage.
const raceEnabled = true
