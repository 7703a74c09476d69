package schemes

import (
	"bytes"
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// mergeEngine is the engine surface the merge scenarios drive: every
// engine admits mid-title (offset viewers, late joiners) and cancels.
type mergeEngine interface {
	Simulator
	AddStreamAt(obj *layout.Object, startGroup int) (int, error)
	CancelStream(id int) error
}

// mergeCase is one engine's hot-title scenario. script runs before the
// Step of cycle cyc (cycle 0's call does the initial admissions); full
// maps stream IDs that must receive their whole title, with no hiccup,
// to the title's object index.
type mergeCase struct {
	name   string
	rig    func(t *testing.T) *rig
	build  func(cfg Config) (mergeEngine, error)
	slots  int
	script func(t *testing.T, e mergeEngine, r *rig, cyc int)
	full   map[int]int
	// check adds engine-specific assertions on the merged run (that the
	// scenario reached the path it exists for).
	check func(t *testing.T, e mergeEngine, res mergeScenarioResult)
}

// mergeScenarioResult is one full run of a hot-title scenario.
type mergeScenarioResult struct {
	reports    []*sched.CycleReport
	deliveries map[int][]sched.Delivery
	// arenaGets counts physical track-buffer fetches — the thing merging
	// is supposed to reduce without touching any report field.
	arenaGets int64
	peak      int
}

// admit is AddStreamAt that fails the test on refusal.
func admit(t *testing.T, e mergeEngine, obj *layout.Object, startGroup int) {
	t.Helper()
	if _, err := e.AddStreamAt(obj, startGroup); err != nil {
		t.Fatal(err)
	}
}

// admitPack admits the common opening: a lockstep pack of four viewers
// of obj0 (streams 0-3), a fifth viewer of obj0 three groups ahead
// (stream 4: same title, never in lockstep with the pack) and a viewer
// of obj1 (stream 5).
func admitPack(t *testing.T, e mergeEngine, r *rig) {
	t.Helper()
	for i := 0; i < 4; i++ {
		admit(t, e, r.object(t, 0), 0)
	}
	admit(t, e, r.object(t, 0), 3)
	admit(t, e, r.object(t, 1), 0)
}

func failDisk(t *testing.T, e mergeEngine, id int) {
	t.Helper()
	if err := e.FailDisk(id); err != nil {
		t.Fatal(err)
	}
}

func cancel(t *testing.T, e mergeEngine, id int) {
	t.Helper()
	if err := e.CancelStream(id); err != nil {
		t.Fatal(err)
	}
}

// groupEngineScript is the Streaming RAID / Declustered scenario: the
// pack opening, a late joiner (stream 6) landing exactly on the pack's
// group 2 at cycle 2, a drive failure at cycle 5 (shared reads must
// reconstruct) and a pack member's cancellation at cycle 8 (share-aware
// release).
func groupEngineScript(t *testing.T, e mergeEngine, r *rig, cyc int) {
	switch cyc {
	case 0:
		admitPack(t, e, r)
	case 2:
		admit(t, e, r.object(t, 0), 2)
	case 5:
		failDisk(t, e, 1)
	case 8:
		cancel(t, e, 1)
	}
}

var mergeCases = []mergeCase{
	{
		name:  "sr",
		rig:   func(t *testing.T) *rig { return newRig(t, 10, 5, 2, 12, layout.DedicatedParity) },
		build: func(cfg Config) (mergeEngine, error) { return NewStreamingRAID(cfg) },
		slots: 8, script: groupEngineScript,
		full: map[int]int{0: 0, 2: 0, 3: 0, 5: 1},
	},
	{
		name:  "dc",
		rig:   func(t *testing.T) *rig { return newDeclusteredRig(t, 9, 9, 3, 2, 12) },
		build: func(cfg Config) (mergeEngine, error) { return NewDeclustered(cfg) },
		slots: 8, script: groupEngineScript,
		full: map[int]int{0: 0, 2: 0, 3: 0, 5: 1},
	},
	{
		// Improved-bandwidth: a second pack of obj2 (streams 6-9) joins a
		// cycle behind the first and runs a cluster apart from it, so when
		// drive 1 fails at cycle 5 each pack's parity reads land on drives
		// the other pack is reading — shared groups become shift victims
		// (copy-on-write) and the wrapped chain terminates streams. The
		// late joiner is stream 10; a pack member cancels at cycle 8.
		name:  "ib",
		rig:   func(t *testing.T) *rig { return newRig(t, 10, 5, 3, 12, layout.IntermixedParity) },
		build: func(cfg Config) (mergeEngine, error) { return NewImprovedBandwidth(cfg, 0) },
		slots: 6,
		script: func(t *testing.T, e mergeEngine, r *rig, cyc int) {
			switch cyc {
			case 0:
				admitPack(t, e, r)
			case 1:
				for i := 0; i < 4; i++ {
					admit(t, e, r.object(t, 2), 0)
				}
			case 2:
				admit(t, e, r.object(t, 0), 2)
			case 5:
				failDisk(t, e, 1)
			case 8:
				cancel(t, e, 1)
			}
		},
		check: func(t *testing.T, e mergeEngine, res mergeScenarioResult) {
			if n := e.(*ImprovedBandwidth).Terminations(); n == 0 {
				t.Error("scenario terminated no stream; the shift never wrapped")
			}
		},
	},
	{
		// Improved-bandwidth over-admitted past its slot budget (a third
		// lockstep viewer slipped in behind admission): the third reader
		// finds the pack's group cached but no free slot, so it must read
		// — and miss — exactly as unmerged instead of sharing.
		name:  "ib-overload",
		rig:   func(t *testing.T) *rig { return newRig(t, 10, 5, 2, 12, layout.IntermixedParity) },
		build: func(cfg Config) (mergeEngine, error) { return NewImprovedBandwidth(cfg, 0) },
		slots: 2,
		script: func(t *testing.T, e mergeEngine, r *rig, cyc int) {
			if cyc != 0 {
				return
			}
			ib := e.(*ImprovedBandwidth)
			obj := r.object(t, 0)
			admit(t, e, obj, 0)
			admit(t, e, obj, 0)
			ib.streams = append(ib.streams, &groupStream{Stream: sched.Stream{ID: ib.allocStreamID(), Obj: obj}})
		},
		full: map[int]int{0: 0, 1: 0},
	},
	{
		// Staggered-group: the pack shares each group it reads in phase 0
		// and drains it one track per cycle on private cursors. The late
		// joiner (stream 6) enters phase 0 at cycle 4 on the pack's group
		// 1; a pack member cancels mid-drain at cycle 6; drive 1 fails
		// mid-drain at cycle 9.
		name:  "sg",
		rig:   func(t *testing.T) *rig { return newRig(t, 10, 5, 2, 12, layout.DedicatedParity) },
		build: func(cfg Config) (mergeEngine, error) { return NewStaggeredGroup(cfg) },
		slots: 8,
		script: func(t *testing.T, e mergeEngine, r *rig, cyc int) {
			switch cyc {
			case 0:
				admitPack(t, e, r)
			case 4:
				admit(t, e, r.object(t, 0), 1)
			case 6:
				cancel(t, e, 1)
			case 9:
				failDisk(t, e, 1)
			}
		},
		full: map[int]int{0: 0, 2: 0, 3: 0, 5: 1},
	},
	ncMergeCase("nc", SimpleSwitchover),
	ncMergeCase("nc-alternate", AlternateSwitchover),
}

// ncMergeCase is the Non-clustered scenario: the pack shares one read
// per track in normal mode, the late joiner (stream 6) enters on the
// pack's track 4 at cycle 4, a pack member cancels at cycle 3 holding a
// shared staged track, and drive 1 fails at cycle 6 — the cluster goes
// degraded with merged staged tracks outstanding — until its repair at
// cycle 20 returns it to merged normal mode.
func ncMergeCase(name string, policy TransitionPolicy) mergeCase {
	return mergeCase{
		name:  name,
		rig:   func(t *testing.T) *rig { return newRig(t, 10, 5, 2, 12, layout.DedicatedParity) },
		build: func(cfg Config) (mergeEngine, error) { return NewNonClustered(cfg, policy, 1) },
		slots: 8,
		script: func(t *testing.T, e mergeEngine, r *rig, cyc int) {
			switch cyc {
			case 0:
				admitPack(t, e, r)
			case 3:
				cancel(t, e, 1)
			case 4:
				admit(t, e, r.object(t, 0), 1)
			case 6:
				failDisk(t, e, 1)
			case 20:
				if err := e.(*NonClustered).RepairDisk(1); err != nil {
					t.Fatal(err)
				}
			}
		},
		check: func(t *testing.T, e mergeEngine, res mergeScenarioResult) {
			if e.(*NonClustered).ClusterDegraded(0) {
				t.Error("cluster 0 still degraded after repair")
			}
			recs := 0
			for _, rep := range res.reports {
				recs += rep.Reconstructions
			}
			if recs == 0 {
				t.Error("scenario never ran a degraded reconstruction")
			}
		},
	}
}

// runMergeScenario runs one case on a fresh rig until every stream is
// done, then drains and checks the engine let go of every buffer.
func runMergeScenario(t *testing.T, mc mergeCase, workers int, disableMerge bool) (mergeScenarioResult, mergeEngine) {
	t.Helper()
	r := mc.rig(t)
	cfg := r.config()
	cfg.Workers = workers
	cfg.SlotsPerDisk = mc.slots
	cfg.DisableMergedReads = disableMerge
	e, err := mc.build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := mergeScenarioResult{deliveries: map[int][]sched.Delivery{}}
	for cyc := 0; cyc < 80; cyc++ {
		mc.script(t, e, r, cyc)
		rep, err := e.Step()
		if err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		rep = rep.Clone()
		res.reports = append(res.reports, rep)
		for _, d := range rep.Delivered {
			res.deliveries[d.StreamID] = append(res.deliveries[d.StreamID], d)
		}
		if cyc > 20 && e.Active() == 0 {
			break
		}
	}
	if e.Active() != 0 {
		t.Fatal("streams still active after 80 cycles")
	}
	// Two more Steps release the engine's refs on the last deliveries
	// (the double-buffered report keeps them for two cycles); after that
	// every track buffer must be back home.
	for i := 0; i < 2; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.BufferInUse(); n != 0 {
		t.Fatalf("buffer pool still holds %d tracks after drain", n)
	}
	if n := e.Arena().Outstanding(); n != 0 {
		t.Fatalf("%d shared track buffers never released", n)
	}
	res.arenaGets, _, _ = e.Arena().Stats()
	res.peak = e.BufferPeak()
	checkDeliveredBytes(t, r, res)
	return res, e
}

// checkDeliveredBytes compares every delivered track with the title's
// archived content.
func checkDeliveredBytes(t *testing.T, r *rig, res mergeScenarioResult) {
	t.Helper()
	trackSize := int(r.farm.Params().TrackSize)
	for id, ds := range res.deliveries {
		for _, d := range ds {
			want := r.content[d.ObjectID][d.Track*trackSize : (d.Track+1)*trackSize]
			if !bytes.Equal(d.Data, want) {
				t.Fatalf("stream %d: %s track %d content differs", id, d.ObjectID, d.Track)
			}
		}
	}
}

// TestMergedReadsBitExactReports pins the core contract of same-title
// read merging on every engine: each CycleReport — deliveries (with
// content bytes), hiccups, read/reconstruction counters, buffer
// occupancy — is bit-identical to the unmerged engine's, at one worker
// and at eight, across admission, a drive failure, a sharer's
// cancellation and each engine's own merge hazard; only the physical
// arena traffic shrinks, and every buffer comes home after the drain.
func TestMergedReadsBitExactReports(t *testing.T) {
	for _, mc := range mergeCases {
		t.Run(mc.name, func(t *testing.T) {
			want, _ := runMergeScenario(t, mc, 1, true)
			for _, workers := range []int{1, 8} {
				merged, e := runMergeScenario(t, mc, workers, false)
				unmerged, _ := runMergeScenario(t, mc, workers, true)
				for _, run := range []struct {
					name string
					res  mergeScenarioResult
				}{{"merged", merged}, {"unmerged", unmerged}} {
					if len(run.res.reports) != len(want.reports) {
						t.Fatalf("workers=%d %s ran %d cycles, serial unmerged %d",
							workers, run.name, len(run.res.reports), len(want.reports))
					}
					for i := range want.reports {
						if !run.res.reports[i].Equal(want.reports[i]) {
							t.Fatalf("workers=%d %s cycle %d differs from serial unmerged:\n got %s\nwant %s",
								workers, run.name, i, stripData(run.res.reports[i]), stripData(want.reports[i]))
						}
					}
					if run.res.peak != want.peak {
						t.Fatalf("workers=%d %s buffer peak %d, serial unmerged %d", workers, run.name, run.res.peak, want.peak)
					}
				}
				// Merging must have actually merged: the pack shares its
				// physical reads, so the merged run fetches fewer buffers.
				if merged.arenaGets >= unmerged.arenaGets {
					t.Fatalf("workers=%d: merging saved no physical reads: %d gets merged vs %d unmerged",
						workers, merged.arenaGets, unmerged.arenaGets)
				}
				if mc.check != nil {
					mc.check(t, e, merged)
				}
			}
			r := mc.rig(t)
			for id, obj := range mc.full {
				verifyStream(t, r, r.object(t, obj), want.deliveries[id], nil)
			}
		})
	}
}
