//go:build !race

package sim

// raceEnabled reports a -race build, whose instrumentation slows the
// branch-and-bound search by an order of magnitude.
const raceEnabled = false
