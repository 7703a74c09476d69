//go:build race

package buffer

// raceEnabled reports whether the race detector instruments this build;
// allocation tests allow for sync.Pool's random drops under it.
const raceEnabled = true
