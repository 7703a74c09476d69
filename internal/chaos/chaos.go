// Package chaos is the repo's deterministic fault-injection harness: a
// seed-reproducible campaign engine that drives every scheme engine
// through randomized admission/failure/repair/rebuild/cancel schedules
// while pluggable invariant checkers audit each cycle, in the spirit of
// the paper's §3-§5 claims about behavior *under failure*:
//
//   - delivery continuity: SR/SG/IB mask single failures with zero
//     hiccups; Non-clustered loses at most one parity group's worth of
//     tracks per stream, inside a bounded transition window (Figures
//     6-7), unless the cluster runs unprotected (degradation of
//     service);
//   - parity-group consistency after every repair and online rebuild;
//   - buffer accounting: no leaked arena buffers or pool tracks once
//     the server drains;
//   - admission: live streams never exceed the analytic N_p bound
//     (equations (8)-(11));
//   - report retention: a Clone of a cycle report stays equal to the
//     live report, delivered bytes match the stored content, and
//     per-stream delivery advances one consecutive track at a time.
//
// One interpreter runs every schedule: Run drives N >= 1 nodes, and a
// single-node schedule is simply a one-node cluster. Everything is
// reproducible from one int64 seed at any worker count. On violation
// the campaign shrinks the schedule with delta debugging to a
// 1-minimal reproducing trace and can export it as a scenario file;
// `ftmmsim -scenario` replays it through FromSpec and Run under the
// same checkers, so the replay reproduces the violation. Regression
// traces live under scenarios/.
package chaos

import (
	"errors"
	"fmt"

	"ftmm/internal/scenario"
)

// EventKind names a schedule event type.
type EventKind string

const (
	// EventAdmit requests a stream for Title; admission rejections are
	// tolerated (the analytic bound is the invariant, not acceptance).
	EventAdmit EventKind = "admit"
	// EventFail fails Drive at the cycle boundary.
	EventFail EventKind = "fail"
	// EventRepair replaces Drive and rebuilds it instantly from parity.
	EventRepair EventKind = "repair"
	// EventRebuild replaces Drive and starts the paper's online rebuild
	// with Budget spare track reads per cycle.
	EventRebuild EventKind = "rebuild"
	// EventTapeReload replaces Drive and refills it from the tertiary
	// library instead of from parity (a scenario failure's
	// "tertiary": true repair).
	EventTapeReload EventKind = "tape-reload"
	// EventCancel hangs up the stream of the Stream-th successful
	// admission (0-based).
	EventCancel EventKind = "cancel"
	// EventNodeKill (multi-node runs only) kills node Node at the cycle
	// boundary: it stops stepping forever and its live sessions fail
	// over to surviving replica holders at the next group boundary.
	EventNodeKill EventKind = "node-kill"
	// EventNodeDrain (multi-node runs only) drains node Node: it stops
	// taking admissions and failovers while its streams play out, and
	// must end empty (the leak checker still audits it).
	EventNodeDrain EventKind = "node-drain"
	// EventPause parks the stream of the Stream-th successful admission:
	// its engine stream is cancelled (the slot returns to the admission
	// pool) and its position held for a later vcr-resume.
	EventPause EventKind = "pause"
	// EventVcrResume re-admits a paused stream at the parity-group floor
	// of its held position. A rejection is tolerated — the stream simply
	// stays parked, like a viewer holding a Retry-After.
	EventVcrResume EventKind = "vcr-resume"
	// EventFF sets the stream's playback multiplier to Rate (k′-weighted
	// admission decides; a refusal is tolerated). Only engines with rate
	// support (sr, dc) apply it; elsewhere it is a no-op.
	EventFF EventKind = "ff"
	// EventRewind jumps the stream to absolute track Track (clamped to
	// the title), re-admitting at the enclosing group boundary; if the
	// farm refuses, the stream is left parked at the target.
	EventRewind EventKind = "rewind"
)

// Event is one scheduled action. Events are applied best-effort so that
// every subset of a schedule remains runnable — the shrinker removes
// events freely and a repair whose failure was removed simply becomes a
// no-op.
type Event struct {
	Cycle  int       `json:"cycle"`
	Kind   EventKind `json:"kind"`
	Title  string    `json:"title,omitempty"`
	Drive  int       `json:"drive,omitempty"`
	Budget int       `json:"budget,omitempty"`
	Stream int       `json:"stream,omitempty"`
	// Node is the target node: the killed/drained node for node
	// events, the shard whose drive a fail/repair/rebuild/tape-reload
	// hits. Single-node schedules leave it 0.
	Node int `json:"node,omitempty"`
	// Rate is the playback multiplier of ff events; Track the absolute
	// jump target of rewind events.
	Rate  int `json:"rate,omitempty"`
	Track int `json:"track,omitempty"`
}

// Schedule is one complete chaos run description: a farm shape, a
// catalog, and an event timeline. It is the unit the generator emits,
// the runner executes, and the shrinker minimizes.
type Schedule struct {
	// Scheme is a server.ParseScheme name: sr, sg, nc, nc-simple, ib,
	// dc.
	Scheme      string `json:"scheme"`
	Disks       int    `json:"disks"`
	ClusterSize int    `json:"cluster_size"`
	// DeclusterGroup is G, the declustering group size, for the dc
	// scheme (0 = 2·ClusterSize-1); ignored otherwise.
	DeclusterGroup int     `json:"decluster_group,omitempty"`
	K              int     `json:"k"`
	Titles         int     `json:"titles"`
	TitleGroups    int     `json:"title_groups"`
	MaxCycles      int     `json:"max_cycles"`
	Events         []Event `json:"events"`
	// Nodes > 1 spreads the run across a farm-per-node cluster; 0 or 1
	// is a one-node run. Replicas and PlacementSeed feed the rendezvous
	// placement that decides which nodes hold which titles.
	Nodes         int   `json:"nodes,omitempty"`
	Replicas      int   `json:"replicas,omitempty"`
	PlacementSeed int64 `json:"placement_seed,omitempty"`
}

// Validate checks the schedule's shape.
func (s *Schedule) Validate() error {
	if err := scenario.CheckFarm(s.Scheme, s.Disks, s.ClusterSize, s.DeclusterGroup); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	switch {
	case s.Titles < 1 || s.TitleGroups < 1:
		return errors.New("chaos: need at least one title with one group")
	case s.MaxCycles < 1:
		return errors.New("chaos: MaxCycles must be positive")
	case s.K < 0:
		return errors.New("chaos: negative K")
	case s.Nodes < 0:
		return errors.New("chaos: negative node count")
	case s.Replicas < 0 || (s.Nodes > 1 && s.Replicas > s.Nodes):
		return fmt.Errorf("chaos: %d replicas do not fit %d nodes", s.Replicas, s.Nodes)
	}
	nodes := s.Nodes
	if nodes < 1 {
		nodes = 1
	}
	for _, ev := range s.Events {
		if ev.Cycle < 0 {
			return fmt.Errorf("chaos: event %+v before cycle 0", ev)
		}
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("chaos: event %+v on node outside [0,%d)", ev, nodes)
		}
		switch ev.Kind {
		case EventAdmit:
			if ev.Title == "" {
				return fmt.Errorf("chaos: admit without title at cycle %d", ev.Cycle)
			}
		case EventFail, EventRepair, EventTapeReload:
			if ev.Drive < 0 || ev.Drive >= s.Disks {
				return fmt.Errorf("chaos: event %+v on drive outside [0,%d)", ev, s.Disks)
			}
		case EventRebuild:
			if ev.Drive < 0 || ev.Drive >= s.Disks {
				return fmt.Errorf("chaos: event %+v on drive outside [0,%d)", ev, s.Disks)
			}
			if ev.Budget < s.ClusterSize-1 {
				return fmt.Errorf("chaos: rebuild budget %d below C-1=%d", ev.Budget, s.ClusterSize-1)
			}
		case EventCancel, EventPause, EventVcrResume:
			if ev.Stream < 0 {
				return fmt.Errorf("chaos: %s of negative stream ordinal %d", ev.Kind, ev.Stream)
			}
		case EventFF:
			if ev.Stream < 0 {
				return fmt.Errorf("chaos: ff of negative stream ordinal %d", ev.Stream)
			}
			if ev.Rate < 1 {
				return fmt.Errorf("chaos: ff rate %d below 1 at cycle %d", ev.Rate, ev.Cycle)
			}
		case EventRewind:
			if ev.Stream < 0 {
				return fmt.Errorf("chaos: rewind of negative stream ordinal %d", ev.Stream)
			}
			if ev.Track < 0 {
				return fmt.Errorf("chaos: rewind to negative track %d at cycle %d", ev.Track, ev.Cycle)
			}
		case EventNodeKill, EventNodeDrain:
			if s.Nodes < 2 {
				return fmt.Errorf("chaos: %s event in a single-node schedule", ev.Kind)
			}
		default:
			return fmt.Errorf("chaos: unknown event kind %q", ev.Kind)
		}
	}
	return nil
}

// ToSpec converts the schedule into a replayable scenario.Spec: the
// exact form `ftmmsim -scenario` consumes and the regression corpus
// under scenarios/ is stored in. Fail events pair with the next repair,
// rebuild or tape reload of the same drive; repairs whose failure is
// absent from the schedule are dropped (the runner treats them as
// no-ops anyway). ToSpec inverts FromSpec: every spec under scenarios/
// survives the round trip unchanged.
func (s *Schedule) ToSpec() *scenario.Spec {
	spec := &scenario.Spec{
		Scheme: s.Scheme, Disks: s.Disks, ClusterSize: s.ClusterSize,
		DeclusterGroup: s.DeclusterGroup,
		K:              s.K, Titles: s.Titles, TitleGroups: s.TitleGroups,
		MaxCycles: s.MaxCycles,
		Nodes:     s.Nodes, Replicas: s.Replicas, PlacementSeed: s.PlacementSeed,
	}
	if spec.MaxCycles == scenario.DefaultMaxCycles {
		spec.MaxCycles = 0
	}
	for _, ev := range s.Events {
		switch ev.Kind {
		case EventAdmit:
			spec.Requests = append(spec.Requests, scenario.Request{Cycle: ev.Cycle, Title: ev.Title})
		case EventCancel:
			spec.Cancels = append(spec.Cancels, scenario.Cancel{Cycle: ev.Cycle, Stream: ev.Stream})
		case EventFail:
			spec.Failures = append(spec.Failures, scenario.Failure{Cycle: ev.Cycle, Drive: ev.Drive, Node: ev.Node})
		case EventNodeKill, EventNodeDrain:
			spec.NodeEvents = append(spec.NodeEvents, scenario.NodeEvent{Cycle: ev.Cycle, Kind: specVerbs[ev.Kind], Node: ev.Node})
		case EventPause, EventVcrResume, EventFF, EventRewind:
			spec.VcrEvents = append(spec.VcrEvents, scenario.VcrEvent{
				Cycle: ev.Cycle, Kind: specVerbs[ev.Kind], Stream: ev.Stream, Rate: ev.Rate, Track: ev.Track,
			})
		case EventRepair, EventRebuild, EventTapeReload:
			for i := len(spec.Failures) - 1; i >= 0; i-- {
				f := &spec.Failures[i]
				if f.Drive == ev.Drive && f.Node == ev.Node && f.RepairCycle == 0 && f.Cycle < ev.Cycle {
					f.RepairCycle = ev.Cycle
					switch ev.Kind {
					case EventRebuild:
						f.RebuildBudget = ev.Budget
					case EventTapeReload:
						f.Tertiary = true
					}
					break
				}
			}
		}
	}
	return spec
}

// FromSpec converts a scenario into a chaos schedule, so every spec —
// shipped regression traces and `ftmmsim -scenario` input alike — is
// replayed by Run under the full checker set.
func FromSpec(spec *scenario.Spec) *Schedule {
	s := &Schedule{
		Scheme: spec.Scheme, Disks: spec.Disks, ClusterSize: spec.ClusterSize,
		DeclusterGroup: spec.DeclusterGroup,
		K:              spec.K, Titles: spec.Titles, TitleGroups: spec.TitleGroups,
		MaxCycles: spec.MaxCycles,
		Nodes:     spec.Nodes, Replicas: spec.Replicas, PlacementSeed: spec.PlacementSeed,
	}
	if s.MaxCycles == 0 {
		s.MaxCycles = scenario.DefaultMaxCycles
	}
	for _, r := range spec.Requests {
		s.Events = append(s.Events, Event{Cycle: r.Cycle, Kind: EventAdmit, Title: r.Title})
	}
	for _, f := range spec.Failures {
		s.Events = append(s.Events, Event{Cycle: f.Cycle, Kind: EventFail, Drive: f.Drive, Node: f.Node})
		if f.RepairCycle > 0 {
			kind, budget := EventRepair, 0
			switch {
			case f.Tertiary:
				kind = EventTapeReload
			case f.RebuildBudget > 0:
				kind, budget = EventRebuild, f.RebuildBudget
			}
			s.Events = append(s.Events, Event{Cycle: f.RepairCycle, Kind: kind, Drive: f.Drive, Budget: budget, Node: f.Node})
		}
	}
	for _, ne := range spec.NodeEvents {
		s.Events = append(s.Events, Event{Cycle: ne.Cycle, Kind: kindOf(ne.Kind), Node: ne.Node})
	}
	for _, c := range spec.Cancels {
		s.Events = append(s.Events, Event{Cycle: c.Cycle, Kind: EventCancel, Stream: c.Stream})
	}
	for _, v := range spec.VcrEvents {
		s.Events = append(s.Events, Event{Cycle: v.Cycle, Kind: kindOf(v.Kind), Stream: v.Stream, Rate: v.Rate, Track: v.Track})
	}
	return s
}

// specVerbs names the node and VCR event kinds as scenario files spell
// them.
var specVerbs = map[EventKind]string{
	EventNodeKill: "kill", EventNodeDrain: "drain",
	EventPause: "pause", EventVcrResume: "resume", EventFF: "ff", EventRewind: "rewind",
}

// kindOf maps a scenario verb back to its event kind; an unknown verb
// passes through for Schedule.Validate to reject.
func kindOf(verb string) EventKind {
	for kind, v := range specVerbs {
		if v == verb {
			return kind
		}
	}
	return EventKind(verb)
}
