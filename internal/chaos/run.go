package chaos

import (
	"fmt"
	"sort"

	"ftmm/internal/disk"
	"ftmm/internal/sched"
	"ftmm/internal/server"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// Violation is one invariant breach, stamped with the checker that
// caught it. Detail strings are deterministic for a given schedule, so
// violations compare byte-identical across runs and worker counts.
type Violation struct {
	Checker string `json:"checker"`
	Cycle   int    `json:"cycle"`
	Detail  string `json:"detail"`
}

// RunResult summarizes one executed schedule.
type RunResult struct {
	// Cycles is how many cycles actually ran (drain step included).
	Cycles int
	// Violation is the first invariant breach, nil for a clean run. The
	// runner stops at the first breach so the shrinker's reproduction
	// predicate is a pure function of the schedule.
	Violation *Violation
}

// RunContext is what checkers see: the live server, the schedule, the
// synthetic catalog, and admission bookkeeping.
type RunContext struct {
	Srv      *server.Server
	Schedule *Schedule
	// Content maps title IDs to the exact bytes archived for them.
	Content   map[string][]byte
	TrackSize int
	// Cycle is the index of the cycle currently being checked.
	Cycle int
	// Admitted lists engine stream IDs in admission order (the ordinal
	// space cancel events address).
	Admitted []int
	// TitleOf maps an engine stream ID to the title it plays.
	TitleOf map[int]string
	// ResumeStart maps engine stream IDs admitted mid-title (cluster
	// session failover lands on a replica at a group boundary, VCR
	// resume/rewind re-admits at a group floor) to their first owed
	// track. Checkers consult it instead of assuming every stream starts
	// at track 0.
	ResumeStart map[int]int
	// Paused maps stream ordinals parked by a pause (or a refused
	// rewind) to the next track they are owed on resume.
	Paused map[int]int
}

// Checker audits one invariant over a run. Begin is called once before
// the first cycle, AfterStep after every cycle with that cycle's
// report, End once after the run drains. Any returned error becomes a
// Violation carrying the checker's Name.
type Checker interface {
	Name() string
	Begin(rc *RunContext) error
	AfterStep(rc *RunContext, rep *sched.CycleReport) error
	End(rc *RunContext) error
}

// EventObserver is implemented by checkers that need to see schedule
// events as they are applied. OnEvent fires only for events that took
// effect (a repair of a healthy drive, say, is skipped, not observed),
// after any Hooks ran — so a hook-injected engine bug is already in
// place when the checker looks.
type EventObserver interface {
	OnEvent(rc *RunContext, ev Event) error
}

// Hooks lets tests sabotage the system at defined points to prove the
// checkers catch real engine bugs (the "deliberately injected bug" of
// the harness's own acceptance tests).
type Hooks struct {
	// AfterRepair runs right after an instant repair of the drive
	// succeeds, before checkers observe the event.
	AfterRepair func(srv *server.Server, drive int) error
	// ResumeGroupOffset shifts every cluster failover's and VCR
	// re-admission's restart group by this many groups — a deliberately
	// broken handoff the cross-node continuity checker must catch. Zero
	// in real runs.
	ResumeGroupOffset int
}

// RunConfig configures one schedule execution.
type RunConfig struct {
	Schedule Schedule
	Checkers []Checker
	Hooks    Hooks
	// DisableMergedReads builds the server without same-title read
	// merging. Reports must not change either way, so a run with and one
	// without it form a differential check of the merged read paths.
	DisableMergedReads bool
}

// Run executes one schedule under the given checkers. It returns an
// error only for malformed configuration; anything that goes wrong
// during the run — including engine errors — is reported as a
// Violation (checker "run-error") so the shrinker can minimize it like
// any other breach.
func Run(cfg RunConfig) (*RunResult, error) {
	sch := &cfg.Schedule
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	scheme, policy, err := server.ParseScheme(sch.Scheme)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{
		Disks: sch.Disks, ClusterSize: sch.ClusterSize,
		DeclusterGroup: sch.DeclusterGroup,
		Scheme:         scheme, NCPolicy: policy, K: sch.K,
		DiskParams:         sch.ToSpec().DiskParams(),
		Workers:            1, // determinism holds at any count; campaigns parallelize across runs
		DisableMergedReads: cfg.DisableMergedReads,
	})
	if err != nil {
		return nil, err
	}
	trackSize := int(srv.Farm().Params().TrackSize)
	content := make(map[string][]byte, sch.Titles)
	for i := 0; i < sch.Titles; i++ {
		id := fmt.Sprintf("title%d", i)
		c := workload.SyntheticContent(id, sch.TitleGroups*(sch.ClusterSize-1)*trackSize)
		content[id] = c
		if err := srv.AddTitle(id, units.ByteSize(len(c)), i/4, c); err != nil {
			return nil, err
		}
	}
	rc := &RunContext{
		Srv: srv, Schedule: sch, Content: content, TrackSize: trackSize,
		TitleOf:     make(map[int]string),
		ResumeStart: make(map[int]int),
		Paused:      make(map[int]int),
	}

	res := &RunResult{}
	violate := func(name string, err error) *RunResult {
		res.Violation = &Violation{Checker: name, Cycle: rc.Cycle, Detail: err.Error()}
		return res
	}
	for _, c := range cfg.Checkers {
		if err := c.Begin(rc); err != nil {
			return violate(c.Name(), err), nil
		}
	}

	events := append([]Event(nil), sch.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
	lastEvent := 0
	for _, ev := range events {
		if ev.Cycle > lastEvent {
			lastEvent = ev.Cycle
		}
	}

	next := 0
	for cycle := 0; cycle < sch.MaxCycles; cycle++ {
		rc.Cycle = cycle
		for next < len(events) && events[next].Cycle == cycle {
			applied, err := apply(rc, events[next], cfg.Hooks)
			if err != nil {
				return violate("run-error", err), nil
			}
			if applied {
				for _, c := range cfg.Checkers {
					if obs, ok := c.(EventObserver); ok {
						if err := obs.OnEvent(rc, events[next]); err != nil {
							return violate(c.Name(), err), nil
						}
					}
				}
			}
			next++
		}
		rep, err := srv.Step()
		if err != nil {
			return violate("run-error", err), nil
		}
		res.Cycles++
		for _, c := range cfg.Checkers {
			if err := c.AfterStep(rc, rep); err != nil {
				return violate(c.Name(), err), nil
			}
		}
		if cycle >= lastEvent && srv.Engine().Active() == 0 && srv.RebuildRemaining() == 0 {
			// Two drain steps: the engine holds its references on a
			// report's buffers for two Steps (the double-buffered report
			// window the pipelined front end stages from), and the leak
			// checker needs both generations released.
			for extra := 1; extra <= 2; extra++ {
				rc.Cycle = cycle + extra
				if _, err := srv.Step(); err != nil {
					return violate("run-error", err), nil
				}
				res.Cycles++
			}
			break
		}
	}
	for _, c := range cfg.Checkers {
		if err := c.End(rc); err != nil {
			return violate(c.Name(), err), nil
		}
	}
	return res, nil
}

// apply performs one event best-effort. It reports whether the event
// took effect; errors are reserved for states a well-formed schedule
// (or any subset of one) cannot reach.
func apply(rc *RunContext, ev Event, hooks Hooks) (bool, error) {
	srv := rc.Srv
	switch ev.Kind {
	case EventAdmit:
		id, _, err := srv.Request(ev.Title)
		if err != nil {
			// Rejection (or a staging refusal) is legitimate behavior,
			// not a harness error; the admission checker owns the bound.
			return false, nil
		}
		rc.Admitted = append(rc.Admitted, id)
		rc.TitleOf[id] = ev.Title
		return true, nil
	case EventFail:
		if st, err := driveState(srv, ev.Drive); err != nil {
			return false, err
		} else if st == disk.Failed {
			return false, nil // subset re-failed a dead drive; skip
		}
		if err := srv.FailDisk(ev.Drive); err != nil {
			return false, fmt.Errorf("chaos: failing drive %d: %w", ev.Drive, err)
		}
		return true, nil
	case EventRepair:
		if st, err := driveState(srv, ev.Drive); err != nil {
			return false, err
		} else if st != disk.Failed {
			return false, nil // failure was shrunk away; repair is a no-op
		}
		if err := srv.RepairDisk(ev.Drive); err != nil {
			return false, fmt.Errorf("chaos: repairing drive %d: %w", ev.Drive, err)
		}
		if hooks.AfterRepair != nil {
			if err := hooks.AfterRepair(srv, ev.Drive); err != nil {
				return false, fmt.Errorf("chaos: AfterRepair hook on drive %d: %w", ev.Drive, err)
			}
		}
		return true, nil
	case EventRebuild:
		if st, err := driveState(srv, ev.Drive); err != nil {
			return false, err
		} else if st != disk.Failed {
			return false, nil
		}
		if err := srv.StartOnlineRebuild(ev.Drive, ev.Budget); err != nil {
			return false, fmt.Errorf("chaos: starting rebuild of drive %d: %w", ev.Drive, err)
		}
		return true, nil
	case EventCancel:
		if ev.Stream >= len(rc.Admitted) {
			return false, nil // admission was shrunk away
		}
		// Cancelling a parked stream is just a hang-up of the session.
		if _, ok := rc.Paused[ev.Stream]; ok {
			delete(rc.Paused, ev.Stream)
			return true, nil
		}
		// A cancel of an already-finished stream errors; that is fine.
		if err := srv.Cancel(rc.Admitted[ev.Stream]); err != nil {
			return false, nil
		}
		return true, nil
	case EventPause:
		if ev.Stream >= len(rc.Admitted) {
			return false, nil
		}
		if _, ok := rc.Paused[ev.Stream]; ok {
			return false, nil // already parked
		}
		next, _, ok := srv.StreamProgress(rc.Admitted[ev.Stream])
		if !ok {
			return false, nil // stream finished or was cancelled
		}
		if err := srv.Cancel(rc.Admitted[ev.Stream]); err != nil {
			return false, nil
		}
		rc.Paused[ev.Stream] = next
		return true, nil
	case EventVcrResume:
		next, ok := rc.Paused[ev.Stream]
		if !ok {
			return false, nil // pause was shrunk away (or resume already ran)
		}
		width := rc.Schedule.ClusterSize - 1
		id, _, err := srv.RequestAt(rc.TitleOf[rc.Admitted[ev.Stream]], next/width)
		if err != nil {
			return false, nil // rejection: the viewer stays parked
		}
		rc.TitleOf[id] = rc.TitleOf[rc.Admitted[ev.Stream]]
		rc.ResumeStart[id] = (next / width) * width
		rc.Admitted[ev.Stream] = id
		delete(rc.Paused, ev.Stream)
		return true, nil
	case EventFF:
		if ev.Stream >= len(rc.Admitted) {
			return false, nil
		}
		if _, ok := rc.Paused[ev.Stream]; ok {
			return false, nil // parked streams draw nothing; nothing to speed up
		}
		// Refusals (k′ bound) and engines without rate support both leave
		// the stream playing at 1x — legitimate, not a harness error.
		if err := srv.SetStreamRate(rc.Admitted[ev.Stream], ev.Rate); err != nil {
			return false, nil
		}
		return true, nil
	case EventRewind:
		if ev.Stream >= len(rc.Admitted) {
			return false, nil
		}
		width := rc.Schedule.ClusterSize - 1
		target := ev.Track
		if t := rc.Schedule.TitleGroups * width; target >= t {
			target = t - 1
		}
		if _, ok := rc.Paused[ev.Stream]; ok {
			rc.Paused[ev.Stream] = target // reposition the parked session
			return true, nil
		}
		if _, _, ok := srv.StreamProgress(rc.Admitted[ev.Stream]); !ok {
			return false, nil
		}
		if err := srv.Cancel(rc.Admitted[ev.Stream]); err != nil {
			return false, nil
		}
		id, _, err := srv.RequestAt(rc.TitleOf[rc.Admitted[ev.Stream]], target/width)
		if err != nil {
			rc.Paused[ev.Stream] = target // refused: park at the target
			return true, nil
		}
		rc.TitleOf[id] = rc.TitleOf[rc.Admitted[ev.Stream]]
		rc.ResumeStart[id] = (target / width) * width
		rc.Admitted[ev.Stream] = id
		return true, nil
	}
	return false, fmt.Errorf("chaos: unknown event kind %q", ev.Kind)
}

func driveState(srv *server.Server, id int) (disk.State, error) {
	drv, err := srv.Farm().Drive(id)
	if err != nil {
		return 0, err
	}
	return drv.State(), nil
}
