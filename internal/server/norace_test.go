//go:build !race

package server

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
