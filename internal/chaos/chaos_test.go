package chaos

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ftmm/internal/failure"
	"ftmm/internal/scenario"
	"ftmm/internal/server"
)

// seedFlag lets CI and bug reports pin a campaign:
//
//	go test ./internal/chaos -run Campaign -seed 1
var seedFlag = flag.Int64("seed", 1, "master seed for chaos campaigns")

// corruptTrackOnDrive overwrites the first laid-out, readable track on
// the drive with wrong bytes. Wired into Hooks.AfterRepair it simulates
// a buggy rebuild — one that restored garbage (or, equivalently for the
// parity equation, skipped a write) — which the parity checker must
// catch. AllObjects is sorted, so the choice of track is deterministic.
func corruptTrackOnDrive(srv *server.Server, drive int) error {
	farm := srv.Farm()
	drv, err := farm.Drive(drive)
	if err != nil {
		return err
	}
	for _, obj := range srv.Catalog().Layout().AllObjects() {
		for gi := range obj.Groups {
			g := &obj.Groups[gi]
			for _, loc := range g.Data {
				if loc.Disk != drive {
					continue
				}
				data, err := drv.ReadTrack(loc.Track)
				if err != nil {
					continue
				}
				data[0] ^= 0xFF
				return drv.WriteTrack(loc.Track, data)
			}
			if g.Parity.Disk == drive {
				data, err := drv.ReadTrack(g.Parity.Track)
				if err != nil {
					continue
				}
				data[0] ^= 0xFF
				return drv.WriteTrack(g.Parity.Track, data)
			}
		}
	}
	return nil
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestCampaignCleanAcrossSchemes is the harness's main claim: every
// scheme engine survives randomized fault schedules with all five
// invariants intact.
func TestCampaignCleanAcrossSchemes(t *testing.T) {
	res, err := Campaign(CampaignConfig{Seed: *seedFlag, Runs: 20})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("run %d (%s, seed %d): %s violation at cycle %d: %s\nshrunk trace (%d events): %s",
			v.Run, v.Scheme, v.Seed, v.Violation.Checker, v.Violation.Cycle, v.Violation.Detail,
			len(v.Shrunk.Events), marshal(t, v.Shrunk))
	}
}

// TestCampaignReproducible pins seed determinism: the same seed yields
// a byte-identical campaign result, twice in a row, including the
// shrunk traces of any violations. The sabotage hook guarantees the
// comparison covers violating runs, not just an empty set.
func TestCampaignReproducible(t *testing.T) {
	cfg := CampaignConfig{
		Seed: *seedFlag, Runs: 8,
		Hooks: Hooks{AfterRepair: corruptTrackOnDrive},
	}
	a, err := Campaign(cfg)
	if err != nil {
		t.Fatalf("first campaign: %v", err)
	}
	b, err := Campaign(cfg)
	if err != nil {
		t.Fatalf("second campaign: %v", err)
	}
	if len(a.Violations) == 0 {
		t.Fatalf("sabotaged campaign found no violations; seed %d generated no instant repairs — pick another seed", *seedFlag)
	}
	if ja, jb := marshal(t, a), marshal(t, b); string(ja) != string(jb) {
		t.Errorf("same seed, different results:\n%s\n%s", ja, jb)
	}
}

// TestCampaignWorkerInvariance pins the determinism contract across
// parallelism: workers 1 and 8 produce byte-identical violation sets.
func TestCampaignWorkerInvariance(t *testing.T) {
	base := CampaignConfig{
		Seed: *seedFlag, Runs: 8,
		Hooks: Hooks{AfterRepair: corruptTrackOnDrive},
	}
	serial, parallel := base, base
	serial.Workers, parallel.Workers = 1, 8
	a, err := Campaign(serial)
	if err != nil {
		t.Fatalf("serial campaign: %v", err)
	}
	b, err := Campaign(parallel)
	if err != nil {
		t.Fatalf("parallel campaign: %v", err)
	}
	if len(a.Violations) == 0 {
		t.Fatalf("sabotaged campaign found no violations; seed %d generated no instant repairs — pick another seed", *seedFlag)
	}
	if ja, jb := marshal(t, a), marshal(t, b); string(ja) != string(jb) {
		t.Errorf("workers=1 and workers=8 disagree:\n%s\n%s", ja, jb)
	}
}

// TestCampaignCatchesInjectedRebuildBug is the harness's own acceptance
// test: a deliberately broken repair (one track restored wrong) must be
// caught by the parity checker and shrunk to a short trace.
func TestCampaignCatchesInjectedRebuildBug(t *testing.T) {
	sch := Schedule{
		Scheme: "sr", Disks: 8, ClusterSize: 4, K: 1,
		Titles: 2, TitleGroups: 3, MaxCycles: 60,
		Events: []Event{
			{Cycle: 0, Kind: EventAdmit, Title: "title0"},
			{Cycle: 1, Kind: EventAdmit, Title: "title1"},
			{Cycle: 2, Kind: EventFail, Drive: 1},
			{Cycle: 4, Kind: EventRepair, Drive: 1},
			{Cycle: 5, Kind: EventAdmit, Title: "title0"},
			{Cycle: 6, Kind: EventFail, Drive: 6},
			{Cycle: 8, Kind: EventRepair, Drive: 6},
			{Cycle: 9, Kind: EventCancel, Stream: 0},
			{Cycle: 10, Kind: EventCancel, Stream: 2},
		},
	}
	hooks := Hooks{AfterRepair: corruptTrackOnDrive}
	res, err := Run(RunConfig{Schedule: sch, Hooks: hooks})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Violation == nil {
		t.Fatal("corrupted repair went undetected")
	}
	if res.Violation.Checker != "parity" {
		t.Fatalf("expected the parity checker to fire, got %q: %s", res.Violation.Checker, res.Violation.Detail)
	}
	shrunk := Shrink(sch, *res.Violation, nil, nil, hooks)
	if n := len(shrunk.Events); n > 10 {
		t.Errorf("shrunk trace has %d events, want <= 10: %s", n, marshal(t, shrunk))
	}
	// The minimal reproduction is one admission (titles are staged to
	// disk only when a stream requests them — without it the farm holds
	// no tracks to corrupt), the failure, and its corrupted repair.
	if n := len(shrunk.Events); n != 3 {
		t.Errorf("shrunk to %d events, ddmin should reach the 3-event minimum: %s", n, marshal(t, shrunk))
	}
	// The shrunk trace must still reproduce when replayed from its
	// scenario form (the corpus round-trip).
	replay := FromSpec(shrunk.ToSpec())
	res2, err := Run(RunConfig{Schedule: *replay, Hooks: hooks})
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if res2.Violation == nil || res2.Violation.Checker != "parity" {
		t.Errorf("shrunk trace did not reproduce after a scenario round-trip: %+v", res2.Violation)
	}
}

// TestScheduleSpecRoundTrip checks that every generated schedule
// survives Schedule -> scenario.Spec -> Schedule with its semantics
// intact (spec validation included — the corpus under scenarios/ is
// written through this path).
func TestScheduleSpecRoundTrip(t *testing.T) {
	for i := 0; i < 30; i++ {
		sch := generateAt(t, *seedFlag, i)
		spec := sch.ToSpec()
		if err := spec.Validate(); err != nil {
			t.Fatalf("schedule %d: exported spec invalid: %v\n%s", i, err, marshal(t, sch))
		}
		back := FromSpec(spec)
		if err := back.Validate(); err != nil {
			t.Fatalf("schedule %d: round-tripped schedule invalid: %v", i, err)
		}
	}
}

// corpusSpecs parses every scenario file under scenarios/, by base
// name.
func corpusSpecs(t *testing.T) map[string]*scenario.Spec {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no scenario files under scenarios/")
	}
	specs := make(map[string]*scenario.Spec, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		specs[filepath.Base(path)] = spec
	}
	return specs
}

// corpusCase is one replay of a shipped scenario, optionally varied,
// and what it must show beyond its verdict.
type corpusCase struct {
	name string
	file string
	vary func(*scenario.Spec)
	// checker and reason pin an expected violation; "" means clean.
	checker, reason string
	// schemes, when set, replays the case once per scheme (subtests).
	schemes []string
	check   func(t *testing.T, res *RunResult, events eventCounter)
}

// finishes requires every admission to finish the title.
func finishes(admitted int) func(*testing.T, *RunResult, eventCounter) {
	return func(t *testing.T, res *RunResult, _ eventCounter) {
		if len(res.Sessions) != admitted || res.Stats.Finished != admitted || !res.Drained {
			t.Errorf("admitted %d, finished %d, drained %v; want %d finished and drained",
				len(res.Sessions), res.Stats.Finished, res.Drained, admitted)
		}
	}
}

// TestChaosCorpus replays every scenario file under scenarios/ —
// single-node and cluster, chaos regression traces and hand-written
// drills — through FromSpec and Run under the full checker set, exactly
// as `ftmmsim -scenario` does. Every file must hold all invariants
// except sr-catastrophe-tape-recovery.json: two failed drives in one
// SR cluster is the paper's catastrophe, and the continuity checker
// must stop it as one. Varied replays of nc-failure-drill.json pin the
// run's accounting, tape-reload repair, max_cycles truncation and every
// scheme.
func TestChaosCorpus(t *testing.T) {
	specs := corpusSpecs(t)
	cases := []corpusCase{{
		name: "nc-failure-drill.json", file: "nc-failure-drill.json",
		check: func(t *testing.T, res *RunResult, ev eventCounter) {
			finishes(5)(t, res, ev)
			// The NC transition costs at most one track per stream under
			// the alternate switchover (the continuity checker enforces
			// the exact bound; this pins that some loss stays bounded).
			if res.Stats.Hiccups > 5 {
				t.Errorf("hiccups = %d, want <= 5", res.Stats.Hiccups)
			}
			if res.Stats.Reconstructions == 0 {
				t.Error("no reconstructions despite a failed drive")
			}
		},
	}, {
		name: "nc-failure-drill.json+tape-reload", file: "nc-failure-drill.json",
		vary: func(s *scenario.Spec) { s.Failures[0].Tertiary = true },
		check: func(t *testing.T, res *RunResult, ev eventCounter) {
			finishes(5)(t, res, ev)
			if ev[EventTapeReload] != 1 {
				t.Errorf("applied tape reloads = %d, want 1", ev[EventTapeReload])
			}
		},
	}, {
		name: "nc-failure-drill.json+max-cycles", file: "nc-failure-drill.json",
		vary: func(s *scenario.Spec) { s.MaxCycles = 3 },
		check: func(t *testing.T, res *RunResult, _ eventCounter) {
			if res.Cycles != 3 || res.Drained || res.Stats.Finished != 0 {
				t.Errorf("cycles %d, drained %v, finished %d; want a 3-cycle truncated run",
					res.Cycles, res.Drained, res.Stats.Finished)
			}
		},
	}, {
		name: "every-scheme", file: "nc-failure-drill.json",
		schemes: []string{"sr", "sg", "nc-simple", "ib"},
		check:   finishes(5),
	}, {
		name: "sr-catastrophe-tape-recovery.json", file: "sr-catastrophe-tape-recovery.json",
		checker: "continuity", reason: "parity group unrecoverable",
	}}
	for name := range specs {
		covered := false
		for _, c := range cases {
			covered = covered || c.name == name
		}
		if !covered {
			cases = append(cases, corpusCase{name: name, file: name})
		}
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].name < cases[j].name })

	replay := func(t *testing.T, c corpusCase, scheme string) {
		// Copy what vary may mutate: cases share the parsed specs.
		spec := *specs[c.file]
		spec.Failures = append([]scenario.Failure(nil), spec.Failures...)
		if c.vary != nil {
			c.vary(&spec)
		}
		if scheme != "" {
			spec.Scheme = scheme
		}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		events := eventCounter{}
		res, err := Run(RunConfig{Schedule: *FromSpec(&spec), NewCheckers: withChecker(events)})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		v := res.Violation
		switch {
		case c.checker == "" && v != nil:
			t.Fatalf("%s violation at cycle %d: %s", v.Checker, v.Cycle, v.Detail)
		case c.checker != "" && (v == nil || v.Checker != c.checker || !strings.Contains(v.Detail, c.reason)):
			t.Fatalf("violation = %+v, want %s: %s", v, c.checker, c.reason)
		}
		if c.check != nil {
			c.check(t, res, events)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.schemes == nil {
				replay(t, c, "")
				return
			}
			for _, scheme := range c.schemes {
				t.Run(scheme, func(t *testing.T) { replay(t, c, scheme) })
			}
		})
	}
}

// TestCorpusSpecRoundTrip pins FromSpec and ToSpec as inverses on the
// shipped corpus: no scenario field (tape reloads included) is lost on
// the way through a schedule.
func TestCorpusSpecRoundTrip(t *testing.T) {
	for name, spec := range corpusSpecs(t) {
		if back := FromSpec(spec).ToSpec(); !reflect.DeepEqual(back, spec) {
			t.Errorf("%s: round trip changed the spec:\n got %s\nwant %s", name, marshal(t, back), marshal(t, spec))
		}
	}
}

func generateAt(t *testing.T, seed int64, i int) Schedule {
	t.Helper()
	schemes := SchemeNames()
	rng := rand.New(rand.NewSource(failure.TrialSeed(seed, i)))
	return Generate(rng, schemes[i%len(schemes)])
}
