//go:build race

package detect

// raceEnabled: under the race detector sync.Pool drops a share of what
// is Put at random, so a pooled path's allocation count means nothing.
const raceEnabled = true
