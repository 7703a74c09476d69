//go:build race

package main

// raceEnabled reports whether the race detector instruments this build;
// rows that need more live goroutines than it allows skip under it.
const raceEnabled = true
