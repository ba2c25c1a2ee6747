//go:build race

package bench

// raceEnabled tells the timing tests that the race detector, under which a
// timing comparison means nothing, is compiled in.
const raceEnabled = true
