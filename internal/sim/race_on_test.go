//go:build race

package sim

// raceEnabled reports that the race detector is on; allocation counts mean
// nothing under it.
const raceEnabled = true
