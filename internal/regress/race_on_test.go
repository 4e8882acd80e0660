//go:build race

package regress

// raceEnabled reports that the race detector is on; a byte pin of
// single-goroutine runs gains nothing under it.
const raceEnabled = true
