package chaos

import (
	"fmt"
	"slices"
	"sort"

	"ftmm/internal/cluster"
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
	// Cycles is how many lockstep cycles actually ran (drain steps
	// included).
	Cycles int
	// Violation is the first invariant breach, nil for a clean run. The
	// runner stops at the first breach so the shrinker's reproduction
	// predicate is a pure function of the schedule.
	Violation *Violation
	// Sessions is the final ledger: every admission's full history.
	Sessions []*Session
	// Drained reports whether every surviving node went idle before
	// MaxCycles.
	Drained bool
	// Stats is every node's server.Stats summed field by field (killed
	// nodes included, up to their death).
	Stats server.Stats
}

// RunContext is what per-node checkers see: the node's live server,
// the schedule, and the synthetic catalog.
type RunContext struct {
	Srv      *server.Server
	Schedule *Schedule
	// Content maps title IDs to the exact bytes archived for them.
	Content   map[string][]byte
	TrackSize int
	// Cycle is the index of the cycle currently being checked.
	Cycle int
	// ResumeStart maps engine stream IDs admitted mid-title (a session
	// failed over onto a replica at a group boundary, or a VCR
	// resume/rewind re-admitted at a group floor) to their first owed
	// track. Checkers consult it instead of assuming every stream starts
	// at track 0.
	ResumeStart map[int]int
}

// Checker audits one per-node invariant over a run. Begin is called
// once before the first cycle, AfterStep after every cycle with that
// cycle's report, End once after the run drains. Any returned error
// becomes a Violation carrying the checker's Name.
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
	// ResumeGroupOffset shifts every failover's and VCR re-admission's
	// restart group by this many groups — a deliberately broken handoff
	// the cross-node continuity checker must catch. Zero in real runs.
	ResumeGroupOffset int
}

// RunConfig configures one schedule execution.
type RunConfig struct {
	Schedule Schedule
	// NewCheckers builds the per-node checker set, called once per
	// node; nil means DefaultCheckers.
	NewCheckers func() []Checker
	// ClusterCheckers audit invariants across nodes and sessions; nil
	// means DefaultClusterCheckers().
	ClusterCheckers []ClusterChecker
	Hooks           Hooks
	// DisableMergedReads builds every node's server without same-title
	// read merging. Reports must not change either way, so a run with
	// and one without it form a differential check of the merged read
	// paths.
	DisableMergedReads bool
}

// NodeRun is one node of a run: a complete server holding its
// placement slice of the catalog, with its own checker set and run
// context (per-node invariants are per-node facts).
type NodeRun struct {
	Index int
	ID    string
	// State is active, draining (plays out its streams but takes no
	// placements; must end empty and still faces the End checkers) or
	// dead (never steps again and skips the End checkers: a killed
	// node's loss is paid in sessions, never in invariants).
	State    cluster.MemberState
	Srv      *server.Server
	RC       *RunContext
	Checkers []Checker
}

// Session is one logical viewer: admitted on one node, possibly
// resumed on others as nodes die or VCR verbs re-admit it. The ordinal
// space that cancel and VCR events address is admission order.
type Session struct {
	Ordinal int
	Title   string
	// Node and SID locate the live engine stream; Node is -1 while the
	// session holds none (parked, or left the system: finished,
	// cancelled, lost, terminated).
	Node int
	SID  int
	// Next is the next new track the viewer is owed. Tracks in
	// [ResumeFloor, Next) may legitimately arrive a second time after a
	// failover — the bounded rewind to the group boundary.
	Next        int
	ResumeFloor int
	// Chain lists the node indexes that served the session, in
	// ownership order.
	Chain                           []int
	Resumes                         int
	Finished, Cancelled, Terminated bool
	// Paused marks a session a pause (or a refused rewind) parked: it
	// holds no engine stream and draws no bandwidth; PausedNext is the
	// track it is owed when a vcr-resume re-admits it.
	Paused     bool
	PausedNext int
	// Lost marks a failover that found no surviving holder with
	// capacity: the admitted loss of an unreplicated (or overloaded)
	// title. LostReason records the justification.
	Lost       bool
	LostReason string
}

// ClusterRunContext is what cluster-level checkers see: every node,
// the session ledger, and the shared catalog.
type ClusterRunContext struct {
	Schedule  *Schedule
	Placement *cluster.Placement
	Nodes     []*NodeRun
	Sessions  []*Session
	Content   map[string][]byte
	TrackSize int
	// Width is tracks per parity group (C-1); Total is tracks per title.
	Width, Total int
	Cycle        int
	// Drained reports whether the run reached the all-idle exit (false
	// until then, and forever if MaxCycles truncated the run).
	Drained bool
	// byStream locates a session from its live (node index, engine
	// stream ID) pair.
	byStream map[[2]int]*Session
}

// SessionOf returns the session currently served by the given node's
// engine stream, or nil.
func (crc *ClusterRunContext) SessionOf(node, sid int) *Session {
	return crc.byStream[[2]int{node, sid}]
}

// ClusterChecker audits a cross-node invariant. AfterStep sees every
// node's report for the cycle, indexed by node (nil for dead nodes,
// which no longer step).
type ClusterChecker interface {
	Name() string
	Begin(crc *ClusterRunContext) error
	AfterStep(crc *ClusterRunContext, reps []*sched.CycleReport) error
	End(crc *ClusterRunContext) error
}

// ClusterEventObserver is implemented by cluster checkers that need to
// see schedule events as they are applied — the cluster-level analogue
// of EventObserver, with the same only-applied-events contract.
type ClusterEventObserver interface {
	OnEvent(crc *ClusterRunContext, ev Event) error
}

// runner carries one run's working state.
type runner struct {
	crc   *ClusterRunContext
	hooks Hooks
}

// Run executes one schedule: max(Nodes, 1) farm-per-node shards
// sharing a rendezvous-placed catalog, stepped in lockstep, under the
// per-node checker set on every node plus the cluster checkers across
// them. A single-node schedule is a one-node cluster. Node kills fail
// sessions over to replica holders at the next group boundary; drains
// stop placements while streams play out. Everything is
// deterministic: node order, routing and failover depend only on the
// schedule.
//
// Run returns an error only for malformed configuration; anything that
// goes wrong during the run — including engine errors — is reported as
// a Violation (checker "run-error") so the shrinker can minimize it
// like any other breach.
func Run(cfg RunConfig) (*RunResult, error) {
	sch := &cfg.Schedule
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	if cfg.NewCheckers == nil {
		cfg.NewCheckers = DefaultCheckers
	}
	if cfg.ClusterCheckers == nil {
		cfg.ClusterCheckers = DefaultClusterCheckers()
	}
	scheme, policy, err := server.ParseScheme(sch.Scheme)
	if err != nil {
		return nil, err
	}

	params := sch.ToSpec().DiskParams()
	trackSize := int(params.TrackSize)
	width := sch.ClusterSize - 1
	titles := make([]string, sch.Titles)
	content := make(map[string][]byte, sch.Titles)
	for i := range titles {
		id := fmt.Sprintf("title%d", i)
		titles[i] = id
		content[id] = workload.SyntheticContent(id, sch.TitleGroups*width*trackSize)
	}
	nodes := max(sch.Nodes, 1)
	replicas := sch.Replicas
	if replicas < 1 {
		replicas = 2
	}
	replicas = min(replicas, nodes)
	nodeIDs := make([]string, nodes)
	for i := range nodeIDs {
		nodeIDs[i] = fmt.Sprintf("node%d", i)
	}
	pl := cluster.Assign(titles, nodeIDs, cluster.PlacementConfig{
		Seed: sch.PlacementSeed, Replicas: replicas,
	})

	crc := &ClusterRunContext{
		Schedule: sch, Placement: pl,
		Content: content, TrackSize: trackSize,
		Width: width, Total: sch.TitleGroups * width,
		byStream: make(map[[2]int]*Session),
	}
	for i, nodeID := range nodeIDs {
		srv, err := server.New(server.Options{
			Disks: sch.Disks, ClusterSize: sch.ClusterSize,
			DeclusterGroup: sch.DeclusterGroup,
			Scheme:         scheme, NCPolicy: policy, K: sch.K,
			DiskParams:         params,
			Workers:            1, // determinism holds at any count; campaigns parallelize across runs
			DisableMergedReads: cfg.DisableMergedReads,
		})
		if err != nil {
			return nil, err
		}
		for rank, title := range titles {
			if !slices.Contains(pl.Holders(title), nodeID) {
				continue
			}
			c := content[title]
			if err := srv.AddTitle(title, units.ByteSize(len(c)), rank/4, c); err != nil {
				return nil, err
			}
		}
		crc.Nodes = append(crc.Nodes, &NodeRun{
			Index: i, ID: nodeID, State: cluster.StateActive, Srv: srv,
			RC: &RunContext{
				Srv: srv, Schedule: sch, Content: content, TrackSize: trackSize,
				ResumeStart: make(map[int]int),
			},
			Checkers: cfg.NewCheckers(),
		})
	}

	r := &runner{crc: crc, hooks: cfg.Hooks}
	res := &RunResult{}
	finish := func() *RunResult {
		res.Sessions, res.Drained = crc.Sessions, crc.Drained
		for _, nd := range crc.Nodes {
			addStats(&res.Stats, nd.Srv.Stats())
		}
		return res
	}
	// violate records a breach; per-node details carry the node's ID
	// when there is more than one node to tell apart.
	violate := func(name string, nd *NodeRun, err error) *RunResult {
		detail := err.Error()
		if nd != nil && len(crc.Nodes) > 1 {
			detail = nd.ID + ": " + detail
		}
		res.Violation = &Violation{Checker: name, Cycle: crc.Cycle, Detail: detail}
		return finish()
	}

	for _, nd := range crc.Nodes {
		for _, c := range nd.Checkers {
			if err := c.Begin(nd.RC); err != nil {
				return violate(c.Name(), nd, err), nil
			}
		}
	}
	for _, c := range cfg.ClusterCheckers {
		if err := c.Begin(crc); err != nil {
			return violate(c.Name(), nil, err), nil
		}
	}

	events := append([]Event(nil), sch.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
	lastEvent := 0
	for _, ev := range events {
		lastEvent = max(lastEvent, ev.Cycle)
	}

	next := 0
	reps := make([]*sched.CycleReport, len(crc.Nodes))
	for cycle := 0; cycle < sch.MaxCycles; cycle++ {
		r.setCycle(cycle)
		for next < len(events) && events[next].Cycle == cycle {
			ev := events[next]
			next++
			applied, target, err := r.apply(ev)
			if err != nil {
				return violate("run-error", nil, err), nil
			}
			if !applied {
				continue
			}
			if target != nil {
				for _, c := range target.Checkers {
					if obs, ok := c.(EventObserver); ok {
						if err := obs.OnEvent(target.RC, ev); err != nil {
							return violate(c.Name(), target, err), nil
						}
					}
				}
			}
			for _, c := range cfg.ClusterCheckers {
				if obs, ok := c.(ClusterEventObserver); ok {
					if err := obs.OnEvent(crc, ev); err != nil {
						return violate(c.Name(), nil, err), nil
					}
				}
			}
		}
		for i, nd := range crc.Nodes {
			reps[i] = nil
			if nd.State == cluster.StateDead {
				continue
			}
			rep, err := nd.Srv.Step()
			if err != nil {
				return violate("run-error", nd, err), nil
			}
			reps[i] = rep
		}
		res.Cycles++
		for i, nd := range crc.Nodes {
			if reps[i] == nil {
				continue
			}
			for _, c := range nd.Checkers {
				if err := c.AfterStep(nd.RC, reps[i]); err != nil {
					return violate(c.Name(), nd, err), nil
				}
			}
		}
		for _, c := range cfg.ClusterCheckers {
			if err := c.AfterStep(crc, reps); err != nil {
				return violate(c.Name(), nil, err), nil
			}
		}
		r.advanceLedger(reps)

		if cycle >= lastEvent && r.allIdle() {
			// Two drain steps per surviving node: engines hold a report's
			// buffers for two Steps (the double-buffered report window the
			// pipelined front end stages from), and the leak checkers need
			// both generations released.
			for extra := 1; extra <= 2; extra++ {
				r.setCycle(cycle + extra)
				for _, nd := range crc.Nodes {
					if nd.State == cluster.StateDead {
						continue
					}
					if _, err := nd.Srv.Step(); err != nil {
						return violate("run-error", nd, err), nil
					}
				}
				res.Cycles++
			}
			crc.Drained = true
			break
		}
	}

	for _, nd := range crc.Nodes {
		if nd.State == cluster.StateDead {
			continue // disposable: a killed node's carcass owes nothing
		}
		for _, c := range nd.Checkers {
			if err := c.End(nd.RC); err != nil {
				return violate(c.Name(), nd, err), nil
			}
		}
	}
	for _, c := range cfg.ClusterCheckers {
		if err := c.End(crc); err != nil {
			return violate(c.Name(), nil, err), nil
		}
	}
	return finish(), nil
}

func addStats(sum *server.Stats, st server.Stats) {
	sum.Cycles += st.Cycles
	sum.QueuedAdmitted += st.QueuedAdmitted
	sum.Delivered += st.Delivered
	sum.Hiccups += st.Hiccups
	sum.Reconstructions += st.Reconstructions
	sum.Finished += st.Finished
	sum.Terminated += st.Terminated
	sum.DataReads += st.DataReads
	sum.ParityReads += st.ParityReads
	sum.BufferPeak += st.BufferPeak
	sum.Stagings += st.Stagings
	sum.Evictions += st.Evictions
}

func (r *runner) setCycle(cycle int) {
	r.crc.Cycle = cycle
	for _, nd := range r.crc.Nodes {
		nd.RC.Cycle = cycle
	}
}

// allIdle reports whether every surviving node finished its work.
func (r *runner) allIdle() bool {
	for _, nd := range r.crc.Nodes {
		if nd.State == cluster.StateDead {
			continue
		}
		if nd.Srv.Engine().Active() != 0 || nd.Srv.RebuildRemaining() != 0 {
			return false
		}
	}
	return true
}

// load counts the sessions a node currently serves.
func (r *runner) load(idx int) int {
	n := 0
	for _, s := range r.crc.Sessions {
		if s.Node == idx {
			n++
		}
	}
	return n
}

// candidates returns the nodes that may take a placement for title, in
// failover preference order refined by load: fewest live sessions
// first, placement rank breaking ties. Only active nodes qualify —
// draining nodes are leaving and dead ones are gone.
func (r *runner) candidates(title string) []*NodeRun {
	var out []*NodeRun
	for _, holder := range r.crc.Placement.Holders(title) {
		for _, nd := range r.crc.Nodes {
			if nd.ID == holder && nd.State == cluster.StateActive {
				out = append(out, nd)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return r.load(out[i].Index) < r.load(out[j].Index)
	})
	return out
}

// live returns the session a stream verb addresses and the node
// serving it, or nil when the ordinal was never admitted (the admission
// was shrunk away) or the session holds no engine stream.
func (r *runner) live(ordinal int) (*Session, *NodeRun) {
	if ordinal >= len(r.crc.Sessions) {
		return nil, nil
	}
	ses := r.crc.Sessions[ordinal]
	if ses.Node < 0 {
		return ses, nil
	}
	return ses, r.crc.Nodes[ses.Node]
}

// detach cancels the session's engine stream, reporting whether it was
// still playing (a finished stream cannot be cancelled).
func (r *runner) detach(ses *Session, nd *NodeRun) bool {
	if err := nd.Srv.Cancel(ses.SID); err != nil {
		return false
	}
	delete(r.crc.byStream, [2]int{ses.Node, ses.SID})
	ses.Node = -1
	return true
}

// apply performs one event best-effort: every subset of a schedule
// stays runnable, so the shrinker can remove events freely (a repair
// whose failure was removed, or a verb whose admission was, becomes a
// no-op). It reports whether the event took effect and the node whose
// per-node observers should see it (nil for events without one);
// errors are reserved for states no well-formed schedule can reach.
func (r *runner) apply(ev Event) (bool, *NodeRun, error) {
	crc := r.crc
	switch ev.Kind {
	case EventAdmit:
		for _, nd := range r.candidates(ev.Title) {
			sid, _, err := nd.Srv.Request(ev.Title)
			if err != nil {
				// Rejection (or a staging refusal) is legitimate; the
				// admission checker owns the bound. Try the next holder.
				continue
			}
			ses := &Session{
				Ordinal: len(crc.Sessions), Title: ev.Title,
				Node: nd.Index, SID: sid, Chain: []int{nd.Index},
			}
			crc.Sessions = append(crc.Sessions, ses)
			crc.byStream[[2]int{nd.Index, sid}] = ses
			return true, nd, nil
		}
		return false, nil, nil // no live holder, or all full: tolerated
	case EventFail, EventRepair, EventRebuild, EventTapeReload:
		nd := crc.Nodes[ev.Node]
		if nd.State == cluster.StateDead {
			return false, nil, nil // shard is gone; its drives with it
		}
		applied, err := r.applyDrive(nd.Srv, ev)
		return applied, nd, err
	case EventNodeKill:
		nd := crc.Nodes[ev.Node]
		if nd.State == cluster.StateDead {
			return false, nil, nil
		}
		nd.State = cluster.StateDead
		r.failover(nd)
		return true, nil, nil
	case EventNodeDrain:
		nd := crc.Nodes[ev.Node]
		if nd.State != cluster.StateActive {
			return false, nil, nil
		}
		nd.State = cluster.StateDraining
		return true, nil, nil
	case EventCancel:
		ses, nd := r.live(ev.Stream)
		if ses != nil && ses.Paused {
			// Hanging up a parked session needs no engine work.
			ses.Paused, ses.Cancelled = false, true
			return true, nil, nil
		}
		if nd == nil || !r.detach(ses, nd) {
			return false, nil, nil // already finished: tolerated
		}
		ses.Cancelled = true
		return true, nd, nil
	case EventPause:
		ses, nd := r.live(ev.Stream)
		if nd == nil {
			return false, nil, nil // parked already, or left the system
		}
		next, _, ok := nd.Srv.StreamProgress(ses.SID)
		if !ok || !r.detach(ses, nd) {
			return false, nil, nil
		}
		ses.Paused, ses.PausedNext = true, next
		return true, nd, nil
	case EventVcrResume:
		ses, _ := r.live(ev.Stream)
		if ses == nil || !ses.Paused {
			return false, nil, nil // pause was shrunk away, or resume already ran
		}
		nd := r.place(ses, ses.PausedNext)
		if nd == nil {
			return false, nil, nil // every holder refused: the viewer stays parked
		}
		return true, nd, nil
	case EventFF:
		ses, nd := r.live(ev.Stream)
		if nd == nil {
			return false, nil, nil // parked streams draw nothing; nothing to speed up
		}
		// Refusals (k′ bound) and engines without rate support both leave
		// the stream at 1x — legitimate, not a harness error.
		if err := nd.Srv.SetStreamRate(ses.SID, ev.Rate); err != nil {
			return false, nil, nil
		}
		return true, nd, nil
	case EventRewind:
		ses, nd := r.live(ev.Stream)
		if ses == nil {
			return false, nil, nil
		}
		target := min(ev.Track, crc.Total-1)
		if ses.Paused {
			ses.PausedNext = target // reposition the parked session
			return true, nil, nil
		}
		if nd == nil {
			return false, nil, nil
		}
		if _, _, ok := nd.Srv.StreamProgress(ses.SID); !ok || !r.detach(ses, nd) {
			return false, nil, nil
		}
		if to := r.place(ses, target); to != nil {
			return true, to, nil
		}
		// Every holder refused the re-admission: park at the target, so
		// the viewer's position survives the refusal.
		ses.Paused, ses.PausedNext = true, target
		return true, nil, nil
	}
	return false, nil, fmt.Errorf("chaos: unknown event kind %q", ev.Kind)
}

// applyDrive performs a drive fault or repair on one node's server.
func (r *runner) applyDrive(srv *server.Server, ev Event) (bool, error) {
	drv, err := srv.Farm().Drive(ev.Drive)
	if err != nil {
		return false, err
	}
	if failed := drv.State() == disk.Failed; failed == (ev.Kind == EventFail) {
		// A subset re-failed a dead drive, or its failure was shrunk away
		// and the repair is a no-op.
		return false, nil
	}
	switch ev.Kind {
	case EventFail:
		err = srv.FailDisk(ev.Drive)
	case EventRepair:
		err = srv.RepairDisk(ev.Drive)
		if err == nil && r.hooks.AfterRepair != nil {
			if err := r.hooks.AfterRepair(srv, ev.Drive); err != nil {
				return false, fmt.Errorf("chaos: AfterRepair hook on drive %d: %w", ev.Drive, err)
			}
		}
	case EventRebuild:
		err = srv.StartOnlineRebuild(ev.Drive, ev.Budget)
	case EventTapeReload:
		_, err = srv.RebuildFromTertiary(ev.Drive)
	}
	if err != nil {
		return false, fmt.Errorf("chaos: %s of drive %d: %w", ev.Kind, ev.Drive, err)
	}
	return true, nil
}

// place admits a session at the group floor of track at — the one
// handoff behind failover, vcr-resume and rewind. It returns the
// serving node, or nil when no active holder had capacity (the session
// is untouched).
func (r *runner) place(ses *Session, at int) *NodeRun {
	crc := r.crc
	startGroup := at/crc.Width + r.hooks.ResumeGroupOffset
	for _, nd := range r.candidates(ses.Title) {
		sid, _, err := nd.Srv.RequestAt(ses.Title, startGroup)
		if err != nil {
			continue
		}
		ses.Paused = false
		ses.Node, ses.SID = nd.Index, sid
		ses.ResumeFloor = startGroup * crc.Width
		if ses.ResumeFloor > ses.Next {
			// A forward seek: the watermark jumps to the restart floor so
			// later failovers resume from the seek, not the skipped past.
			ses.Next = ses.ResumeFloor
		}
		ses.Chain = append(ses.Chain, nd.Index)
		ses.Resumes++
		crc.byStream[[2]int{nd.Index, sid}] = ses
		nd.RC.ResumeStart[sid] = ses.ResumeFloor
		return nd
	}
	return nil
}

// failover moves every session the dead node served onto a surviving
// replica holder, resuming at the group boundary at or before the next
// owed track — the same handoff the network layer's RESUME performs,
// run deterministically in-process.
func (r *runner) failover(dead *NodeRun) {
	for _, ses := range r.crc.Sessions {
		if ses.Node != dead.Index {
			continue
		}
		delete(r.crc.byStream, [2]int{ses.Node, ses.SID})
		if ses.Next >= r.crc.Total {
			// Everything was delivered; only the finish notice died with
			// the node.
			ses.Finished = true
			ses.Node = -1
			continue
		}
		if r.place(ses, ses.Next) == nil {
			ses.Lost = true
			ses.LostReason = fmt.Sprintf("no surviving holder with capacity for %s after %s died", ses.Title, dead.ID)
			ses.Node = -1
		}
	}
}

// advanceLedger folds one cycle's reports into the session ledger:
// delivered and hiccuped tracks advance Next, finish and termination
// notices retire sessions.
func (r *runner) advanceLedger(reps []*sched.CycleReport) {
	crc := r.crc
	tracks := make(map[*Session][]int)
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		for _, d := range rep.Delivered {
			if ses := crc.byStream[[2]int{i, d.StreamID}]; ses != nil {
				tracks[ses] = append(tracks[ses], d.Track)
			}
		}
		for _, h := range rep.Hiccups {
			if ses := crc.byStream[[2]int{i, h.StreamID}]; ses != nil {
				tracks[ses] = append(tracks[ses], h.Track)
			}
		}
	}
	for ses, ts := range tracks {
		sort.Ints(ts)
		for _, t := range ts {
			if t == ses.Next {
				ses.Next++
			}
		}
	}
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		for _, sid := range rep.Finished {
			if ses := crc.byStream[[2]int{i, sid}]; ses != nil {
				ses.Finished = true
				ses.Node = -1
				delete(crc.byStream, [2]int{i, sid})
			}
		}
		for _, sid := range rep.Terminated {
			if ses := crc.byStream[[2]int{i, sid}]; ses != nil {
				ses.Terminated = true
				ses.Node = -1
				delete(crc.byStream, [2]int{i, sid})
			}
		}
	}
}
