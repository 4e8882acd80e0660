//go:build !race

package smcore

const raceEnabled = false
