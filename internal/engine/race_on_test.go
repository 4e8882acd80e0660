//go:build race

package engine_test

// raceEnabled reports that the race detector is on. Its pass runs the
// package's unit tests; the catalog oracles, which it would only slow, run
// in the race-free pass.
const raceEnabled = true
