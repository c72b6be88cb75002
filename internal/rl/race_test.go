//go:build race

package rl

// raceEnabled reports a -race build, whose instrumentation allocates and
// slows the production-schedule epoch about tenfold.
const raceEnabled = true
