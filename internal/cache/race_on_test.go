//go:build race

package cache

// raceEnabled reports that the race detector is on: it allocates shadow
// state of its own, so allocation counts mean nothing under it.
const raceEnabled = true
