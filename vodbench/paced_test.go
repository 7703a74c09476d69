package main

import (
	"testing"
	"time"
)

func TestDeadlineIsOneCyclePlusTrackShare(t *testing.T) {
	first := time.Unix(1000, 0)
	cycle := 40 * time.Millisecond
	cases := []struct {
		burst, track int
		want         time.Duration
	}{
		{4, 0, 40 * time.Millisecond},   // one cycle of startup prefetch
		{4, 1, 50 * time.Millisecond},   // + T′/k′ per track
		{4, 4, 80 * time.Millisecond},   // a whole burst later: + one cycle
		{4, 79, 830 * time.Millisecond}, // last track of a 20-cycle title
		{1, 3, 160 * time.Millisecond},  // k′ = 1: one track per cycle
	}
	for _, c := range cases {
		if got := deadline(first, cycle, c.burst, c.track).Sub(first); got != c.want {
			t.Errorf("k'=%d track %d: deadline t_first+%v, want +%v", c.burst, c.track, got, c.want)
		}
	}
}

func TestSlackOfAPerfectPacer(t *testing.T) {
	// Bursts of k′ tracks arriving exactly every T′ after the first: a
	// burst's first track has one cycle of slack, its last one cycle
	// plus (k′−1)/k′.
	first := time.Unix(0, 0)
	cycle, burst := 20*time.Millisecond, 4
	for track := 0; track < 12; track++ {
		arrival := first.Add(time.Duration(track/burst) * cycle)
		slack := deadline(first, cycle, burst, track).Sub(arrival)
		want := cycle + time.Duration(track%burst)*cycle/time.Duration(burst)
		if slack != want {
			t.Errorf("track %d: slack %v, want %v", track, slack, want)
		}
	}
}
