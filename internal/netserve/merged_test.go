package netserve

import (
	"testing"
)

// runHotTitle drives one rig with nHot viewers of the hottest title plus
// one witness viewer of another title, all in manual-clock lockstep, and
// returns each consumer's result (hot viewers first, witness last) plus
// the net_merged_tracks counter.
func runHotTitle(t *testing.T, scheme string, cfg rigConfig, nHot int) (*loopRig, []*clientResult, int64) {
	t.Helper()
	r := newLoopRig(t, scheme, cfg)
	clients := make([]*Client, 0, nHot+1)
	for i := 0; i < nHot; i++ {
		c, _ := r.connect(t, r.titles[0])
		clients = append(clients, c)
	}
	witness, _ := r.connect(t, r.titles[1])
	clients = append(clients, witness)

	results := make([]*clientResult, len(clients))
	done := make(chan int, len(clients))
	for i, c := range clients {
		go func(i int, c *Client) {
			results[i] = consume(c)
			c.Close()
			done <- i
		}(i, c)
	}
	r.stepUntilIdle(t, 200)
	for range clients {
		<-done
	}
	merged := r.srv.Metrics().Snapshot().Counters["net_merged_tracks"]
	return r, results, merged
}

// TestMergedBurstBitExactEveryScheme is the merged-burst acceptance
// test: under every scheme, a pack of same-title viewers admitted in the
// same cycle (the Zipf head, lockstep) plus a witness on another title
// all receive bit-exact content. With engine read merging on, every
// scheme's engine hands the pack the same track refs, so the pack's
// bursts are physically shared (one staged run fanned out to every
// session — asserted via net_merged_tracks); with merging disabled the
// same wire contract holds over the per-session path, so shared and
// private delivery are interchangeable byte for byte.
func TestMergedBurstBitExactEveryScheme(t *testing.T) {
	const nHot = 4
	for _, tc := range []struct {
		name       string
		scheme     string
		noMerge    bool
		wantShared bool
	}{
		{"sr-merged", "sr", false, true},
		{"sr-unmerged", "sr", true, false},
		{"sg", "sg", false, true},
		{"sg-unmerged", "sg", true, false},
		{"nc-simple", "nc-simple", false, true},
		{"nc-simple-unmerged", "nc-simple", true, false},
		{"ib", "ib", false, true},
		{"ib-unmerged", "ib", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultRig()
			// Room for the pack: nHot viewers of title0 land on one
			// cluster in the same cycle.
			cfg.slotsPerDisk = nHot + 2
			cfg.groups = 6
			cfg.noMergedReads = tc.noMerge
			r, results, merged := runHotTitle(t, tc.scheme, cfg, nHot)
			for i := 0; i < nHot; i++ {
				verifyBitExact(t, r, r.titles[0], results[i])
			}
			verifyBitExact(t, r, r.titles[1], results[nHot])
			if tc.wantShared && merged == 0 {
				t.Error("expected merged bursts for the lockstep pack, net_merged_tracks = 0")
			}
			if !tc.wantShared && merged != 0 {
				t.Errorf("unexpected merged bursts: net_merged_tracks = %d", merged)
			}
		})
	}
}
