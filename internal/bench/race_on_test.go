//go:build race

package bench

// raceEnabled tells TestUnderForcedSteals that the race detector, under
// which a timing comparison means nothing, is compiled in.
const raceEnabled = true
