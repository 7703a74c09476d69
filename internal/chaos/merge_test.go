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

// runMergedAndUnmerged executes one single-node schedule with and
// without same-title read merging, under the full checker set, and
// requires identical CycleReports every cycle. It returns the physical
// buffer fetches of both runs.
func runMergedAndUnmerged(t *testing.T, sch Schedule) (merged, unmerged int64) {
	t.Helper()
	var logs [2]*reportLog
	for i, disable := range []bool{false, true} {
		log := &reportLog{}
		res, err := Run(RunConfig{
			Schedule:           sch,
			Checkers:           append(DefaultCheckers(), log),
			DisableMergedReads: disable,
		})
		if err != nil {
			t.Fatalf("%s (merging disabled=%v): %v", sch.Scheme, disable, err)
		}
		if v := res.Violation; v != nil {
			t.Fatalf("%s (merging disabled=%v): %s violation at cycle %d: %s",
				sch.Scheme, disable, v.Checker, v.Cycle, v.Detail)
		}
		logs[i] = log
	}
	m, u := logs[0], logs[1]
	if len(m.reports) != len(u.reports) {
		t.Fatalf("%s: merged run checked %d cycles, unmerged %d", sch.Scheme, len(m.reports), len(u.reports))
	}
	for i := range m.reports {
		if !m.reports[i].Equal(u.reports[i]) {
			t.Fatalf("%s: cycle %d report differs between merged and unmerged runs", sch.Scheme, i)
		}
	}
	if m.arenaGets > u.arenaGets {
		t.Fatalf("%s: merged run fetched %d buffers, unmerged %d", sch.Scheme, m.arenaGets, u.arenaGets)
	}
	return m.arenaGets, u.arenaGets
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
// identical reports both ways with every checker holding.
func TestMergeDifferentialCampaign(t *testing.T) {
	const perScheme = 8
	for si, scheme := range SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			var merged, unmerged int64
			for i := 0; i < perScheme; i++ {
				rng := rand.New(rand.NewSource(failure.TrialSeed(*seedFlag, si*perScheme+i)))
				sch := Generate(rng, scheme)
				for _, s := range []Schedule{sch, packed(sch)} {
					m, u := runMergedAndUnmerged(t, s)
					merged += m
					unmerged += u
				}
			}
			if merged >= unmerged {
				t.Fatalf("merging saved no physical reads over the campaign: %d gets merged, %d unmerged", merged, unmerged)
			}
		})
	}
}

// TestMergeDifferentialCorpus replays the committed single-node chaos
// traces under scenarios/ with and without read merging.
func TestMergeDifferentialCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "chaos-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := scenario.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		sch := FromSpec(spec)
		if sch.Nodes > 1 {
			continue // cluster traces run through RunCluster, not Run
		}
		ran++
		t.Run(filepath.Base(path), func(t *testing.T) {
			runMergedAndUnmerged(t, *sch)
		})
	}
	if ran == 0 {
		t.Fatal("no single-node chaos traces under scenarios/")
	}
}
