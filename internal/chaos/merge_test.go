package chaos

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ftmm/internal/failure"
	"ftmm/internal/scenario"
	"ftmm/internal/sched"
)

// reportLog is a checker that keeps a deep copy of every cycle's report
// and, at the end, the engine's lifetime arena gets (physical track
// buffer fetches — the one thing merging may change).
type reportLog struct {
	reports   []*sched.CycleReport
	arenaGets int64
}

func (l *reportLog) Name() string            { return "report-log" }
func (l *reportLog) Begin(*RunContext) error { return nil }

func (l *reportLog) AfterStep(_ *RunContext, rep *sched.CycleReport) error {
	l.reports = append(l.reports, rep.Clone())
	return nil
}

func (l *reportLog) End(rc *RunContext) error {
	l.arenaGets, _, _ = rc.Srv.Engine().Arena().Stats()
	return nil
}

// runMergedAndUnmerged executes one schedule with and without
// same-title read merging on every node, under the full checker set,
// and requires identical CycleReports from every node every cycle. It
// returns the physical buffer fetches of both runs, summed over nodes.
func runMergedAndUnmerged(t *testing.T, sch Schedule) (merged, unmerged int64) {
	t.Helper()
	var logs [2][]*reportLog
	for i, disable := range []bool{false, true} {
		res, err := Run(RunConfig{
			Schedule: sch,
			NewCheckers: func() []Checker {
				log := &reportLog{}
				logs[i] = append(logs[i], log)
				return append(DefaultCheckers(), log)
			},
			DisableMergedReads: disable,
		})
		if err != nil {
			t.Fatalf("%s (merging disabled=%v): %v", sch.Scheme, disable, err)
		}
		if v := res.Violation; v != nil {
			t.Fatalf("%s (merging disabled=%v): %s violation at cycle %d: %s",
				sch.Scheme, disable, v.Checker, v.Cycle, v.Detail)
		}
	}
	for n, m := range logs[0] {
		u := logs[1][n]
		if len(m.reports) != len(u.reports) {
			t.Fatalf("%s node%d: merged run checked %d cycles, unmerged %d", sch.Scheme, n, len(m.reports), len(u.reports))
		}
		for i := range m.reports {
			if !m.reports[i].Equal(u.reports[i]) {
				t.Fatalf("%s node%d: cycle %d report differs between merged and unmerged runs", sch.Scheme, n, i)
			}
		}
		merged += m.arenaGets
		unmerged += u.arenaGets
	}
	if merged > unmerged {
		t.Fatalf("%s: merged run fetched %d buffers, unmerged %d", sch.Scheme, merged, unmerged)
	}
	return merged, unmerged
}

// packed doubles every admission of a schedule (a second viewer of the
// same title in the same cycle), so lockstep sharers — and with them
// the merged read paths — appear in every run.
func packed(sch Schedule) Schedule {
	out := sch
	out.Events = nil
	for _, ev := range sch.Events {
		out.Events = append(out.Events, ev)
		if ev.Kind == EventAdmit {
			out.Events = append(out.Events, ev)
		}
	}
	return out
}

// TestMergeDifferentialCampaign checks every shipping engine's merged
// read path against its unmerged one under random chaos schedules
// (admissions, failures, repairs, online rebuilds, cancellations and
// VCR verbs): each generated schedule, and its packed twin, must yield
// identical reports both ways with every checker holding. The 3-node
// leg adds node kills, drains and failover re-admissions.
func TestMergeDifferentialCampaign(t *testing.T) {
	const perScheme = 8
	for si, scheme := range SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			mergeCampaign(t, []string{scheme}, 1, si*perScheme, perScheme)
		})
	}
	t.Run("3-node", func(t *testing.T) {
		mergeCampaign(t, SchemeNames(), 3, 0, 2)
	})
}

// mergeCampaign runs n generated schedules per scheme (and their packed
// twins) through runMergedAndUnmerged, and requires merging to have
// saved physical reads over the whole campaign.
func mergeCampaign(t *testing.T, schemes []string, nodes, first, n int) {
	t.Helper()
	var merged, unmerged int64
	for _, scheme := range schemes {
		for i := first; i < first+n; i++ {
			rng := rand.New(rand.NewSource(failure.TrialSeed(*seedFlag, i)))
			sch := GenerateCluster(rng, scheme, nodes)
			for _, s := range []Schedule{sch, packed(sch)} {
				m, u := runMergedAndUnmerged(t, s)
				merged += m
				unmerged += u
			}
		}
	}
	if merged >= unmerged {
		t.Fatalf("%v: merging saved no physical reads: %d gets merged, %d unmerged", schemes, merged, unmerged)
	}
}

// TestMergeDifferentialCorpus replays the committed chaos traces under
// scenarios/, single-node and multi-node, with and without read
// merging.
func TestMergeDifferentialCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "chaos-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no chaos traces under scenarios/")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := scenario.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			runMergedAndUnmerged(t, *FromSpec(spec))
		})
	}
}
