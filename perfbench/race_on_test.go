//go:build race

package main

// raceEnabled reports a race-detector build, which slows refresh-hdg's
// warm-up enough that a tiny window may close before any refresh returns.
const raceEnabled = true
