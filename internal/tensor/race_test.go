//go:build race

package tensor

// raceEnabled: the exhaustive float32 sweeps run their short form under
// the race detector, which slows them tenfold.
const raceEnabled = true
