// Package scenario defines the declarative, replayable scenario
// format: a JSON description of a farm, a catalog, and schedules of
// admissions, drive failures and repairs, hang-ups, VCR verbs and node
// events. It parses and validates specs; running one is the chaos
// harness's job (chaos.FromSpec, then chaos.Run under the full checker
// set), which is what cmd/ftmmsim -scenario does and what the
// regression corpus under scenarios/ is replayed through.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"ftmm/internal/analytic"
	"ftmm/internal/diskmodel"
	"ftmm/internal/server"
	"ftmm/internal/units"
)

// DefaultMaxCycles bounds a run whose spec leaves max_cycles at 0.
const DefaultMaxCycles = 10_000

// Spec is the JSON scenario description.
type Spec struct {
	// Scheme is a server.ParseScheme name: sr, sg, nc, nc-simple, ib,
	// dc.
	Scheme string `json:"scheme"`
	// Disks and ClusterSize shape the farm.
	Disks       int `json:"disks"`
	ClusterSize int `json:"cluster_size"`
	// DeclusterGroup is G, the declustering group size, for the dc
	// scheme (0 = 2·ClusterSize-1); ignored otherwise.
	DeclusterGroup int `json:"decluster_group,omitempty"`
	// K is the reserve depth (buffer servers / reserved bandwidth).
	K int `json:"k"`
	// Titles to archive, each TitleGroups parity groups long.
	Titles      int `json:"titles"`
	TitleGroups int `json:"title_groups"`
	// Requests schedules stream admissions.
	Requests []Request `json:"requests"`
	// Failures schedules drive failures and repairs.
	Failures []Failure `json:"failures"`
	// Cancels schedules client hang-ups, applied best-effort: a cancel
	// whose stream is unknown or already finished is silently skipped,
	// so shrunk chaos traces stay runnable after events are removed.
	Cancels []Cancel `json:"cancels,omitempty"`
	// VcrEvents schedules interactive-viewer verbs (pause, resume, ff,
	// rewind) against admitted streams, applied best-effort like Cancels.
	VcrEvents []VcrEvent `json:"vcr_events,omitempty"`
	// MaxCycles bounds the run (0 = DefaultMaxCycles).
	MaxCycles int `json:"max_cycles"`
	// Cluster topology: Nodes > 1 spreads the spec across a
	// farm-per-node cluster; 0 or 1 is a one-node run. Replicas and
	// PlacementSeed feed the rendezvous placement; NodeEvents kill or
	// drain whole nodes.
	Nodes         int         `json:"nodes,omitempty"`
	Replicas      int         `json:"replicas,omitempty"`
	PlacementSeed int64       `json:"placement_seed,omitempty"`
	NodeEvents    []NodeEvent `json:"node_events,omitempty"`
}

// Request admits a stream for a title at a cycle.
type Request struct {
	Cycle int    `json:"cycle"`
	Title string `json:"title"`
}

// Failure fails a drive at a cycle, optionally repairing it later.
// RepairCycle <= 0 means never; Tertiary selects tape reload (the
// drive is replaced and refilled from the tertiary library) instead of
// parity rebuild. RebuildBudget > 0 selects the paper's online rebuild
// mode instead of an instant repair: at RepairCycle the drive is
// replaced and its contents restored incrementally, at most
// RebuildBudget spare track reads per cycle (must be >= C-1).
type Failure struct {
	Cycle         int  `json:"cycle"`
	Drive         int  `json:"drive"`
	RepairCycle   int  `json:"repair_cycle"`
	Tertiary      bool `json:"tertiary"`
	RebuildBudget int  `json:"rebuild_budget,omitempty"`
	// Node is the shard whose drive fails, for cluster specs.
	Node int `json:"node,omitempty"`
}

// NodeEvent kills or drains one cluster node at a cycle. "kill" stops
// the node dead (its sessions fail over to replica holders); "drain"
// stops it taking placements while its streams play out.
type NodeEvent struct {
	Cycle int    `json:"cycle"`
	Kind  string `json:"kind"`
	Node  int    `json:"node"`
}

// Cancel hangs up the stream admitted by the Stream-th successful
// request (0-based, in schedule order) at the given cycle.
type Cancel struct {
	Cycle  int `json:"cycle"`
	Stream int `json:"stream"`
}

// VcrEvent applies one interactive-viewer verb to the Stream-th
// successful admission at a cycle. Kind is "pause" (park the stream,
// freeing its slot), "resume" (re-admit a paused stream at its held
// position's group floor; a rejection leaves it parked), "ff" (set
// playback multiplier Rate; refusals and engines without rate support
// are tolerated), or "rewind" (jump to absolute track Track, clamped;
// refusals park the stream at the target).
type VcrEvent struct {
	Cycle  int    `json:"cycle"`
	Kind   string `json:"kind"`
	Stream int    `json:"stream"`
	Rate   int    `json:"rate,omitempty"`
	Track  int    `json:"track,omitempty"`
}

// Parse decodes and validates a JSON spec. Unknown fields are rejected
// so typos in scenario files fail loudly.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's shape.
func (s *Spec) Validate() error {
	if err := CheckFarm(s.Scheme, s.Disks, s.ClusterSize, s.DeclusterGroup); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	switch {
	case s.K < 0:
		return fmt.Errorf("scenario: negative k %d", s.K)
	case s.Titles < 1 || s.TitleGroups < 1:
		return errors.New("scenario: need at least one title with one group")
	case s.MaxCycles < 0:
		return fmt.Errorf("scenario: negative max_cycles %d", s.MaxCycles)
	case len(s.Requests) == 0:
		return errors.New("scenario: no requests")
	}
	for _, r := range s.Requests {
		if r.Cycle < 0 || r.Title == "" {
			return fmt.Errorf("scenario: bad request %+v", r)
		}
	}
	for _, f := range s.Failures {
		if f.Cycle < 0 || f.Drive < 0 || f.Drive >= s.Disks {
			return fmt.Errorf("scenario: bad failure %+v", f)
		}
		if f.RepairCycle > 0 && f.RepairCycle <= f.Cycle {
			return fmt.Errorf("scenario: repair at %d not after failure at %d", f.RepairCycle, f.Cycle)
		}
		if f.RebuildBudget < 0 || (f.RebuildBudget > 0 && f.RebuildBudget < s.ClusterSize-1) {
			return fmt.Errorf("scenario: rebuild budget %d below C-1=%d", f.RebuildBudget, s.ClusterSize-1)
		}
		if f.RebuildBudget > 0 && f.Tertiary {
			return fmt.Errorf("scenario: failure %+v mixes tertiary reload with online rebuild", f)
		}
	}
	for _, c := range s.Cancels {
		if c.Cycle < 0 || c.Stream < 0 {
			return fmt.Errorf("scenario: bad cancel %+v", c)
		}
	}
	for _, v := range s.VcrEvents {
		if v.Cycle < 0 || v.Stream < 0 {
			return fmt.Errorf("scenario: bad vcr event %+v", v)
		}
		switch v.Kind {
		case "pause", "resume":
		case "ff":
			if v.Rate < 1 {
				return fmt.Errorf("scenario: ff rate %d below 1", v.Rate)
			}
		case "rewind":
			if v.Track < 0 {
				return fmt.Errorf("scenario: rewind to negative track %d", v.Track)
			}
		default:
			return fmt.Errorf("scenario: unknown vcr event kind %q", v.Kind)
		}
	}
	if s.Nodes < 0 {
		return errors.New("scenario: negative node count")
	}
	if s.Replicas < 0 || (s.Nodes > 1 && s.Replicas > s.Nodes) {
		return fmt.Errorf("scenario: %d replicas do not fit %d nodes", s.Replicas, s.Nodes)
	}
	nodes := s.Nodes
	if nodes < 1 {
		nodes = 1
	}
	for _, f := range s.Failures {
		if f.Node < 0 || f.Node >= nodes {
			return fmt.Errorf("scenario: failure %+v on node outside [0,%d)", f, nodes)
		}
	}
	for _, ne := range s.NodeEvents {
		if s.Nodes < 2 {
			return errors.New("scenario: node events need nodes > 1")
		}
		if ne.Kind != "kill" && ne.Kind != "drain" {
			return fmt.Errorf("scenario: unknown node event kind %q", ne.Kind)
		}
		if ne.Cycle < 0 || ne.Node < 0 || ne.Node >= s.Nodes {
			return fmt.Errorf("scenario: bad node event %+v", ne)
		}
	}
	return nil
}

// FarmUnit returns the drive-group size a farm is built from: the
// declustering group G for the dc scheme (0 defaults to 2C-1), the
// cluster C otherwise. Disks must be a whole number of these units.
func FarmUnit(scheme string, clusterSize, declusterGroup int) int {
	if sch, _, err := server.ParseScheme(scheme); err == nil && sch == analytic.DeclusteredParity {
		if declusterGroup > 0 {
			return declusterGroup
		}
		return 2*clusterSize - 1
	}
	return clusterSize
}

// CheckFarm is the one farm-shape rule scenario specs and chaos
// schedules share: a known scheme, C >= 2, and a whole number of farm
// units (see FarmUnit), each at least one cluster wide.
func CheckFarm(scheme string, disks, clusterSize, declusterGroup int) error {
	if _, _, err := server.ParseScheme(scheme); err != nil {
		return err
	}
	unit := FarmUnit(scheme, clusterSize, declusterGroup)
	if clusterSize < 2 || unit < clusterSize || disks < unit || disks%unit != 0 {
		return fmt.Errorf("bad farm %dx%d (unit %d)", disks, clusterSize, unit)
	}
	return nil
}

// DiskParams sizes drives to hold the catalog comfortably: the one
// geometry every run of a spec (or of a chaos schedule, which exports
// to one) builds its servers with, so a shrunk trace reproduces its
// violation byte for byte when replayed.
func (s *Spec) DiskParams() diskmodel.Params {
	p := diskmodel.Table1()
	tracksPerTitle := s.TitleGroups * s.ClusterSize
	p.Capacity = units.ByteSize((s.Titles*tracksPerTitle)/s.Disks+tracksPerTitle+50) * p.TrackSize
	return p
}
