//go:build !race

package regress

const raceEnabled = false
