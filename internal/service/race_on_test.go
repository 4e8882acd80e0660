//go:build race

package service

// raceEnabled reports that the race detector is on; allocation counts mean
// nothing under it.
const raceEnabled = true
