//go:build race

package sched

// raceEnabled tells the timing tests that the race detector, which slows
// every synchronising operation several times over, is compiled in.
const raceEnabled = true
