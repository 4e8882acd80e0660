//go:build !race

package engine_test

const raceEnabled = false
