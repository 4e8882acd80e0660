//go:build race

package cache

// raceEnabled reports that the race detector is on: it allocates shadow
// state of its own and makes sync.Pool drop a share of what is put back,
// so allocation counts mean nothing under it.
const raceEnabled = true
