// Package cluster shards the server farm across nodes behind one
// admission plane: a deterministic placement map routes titles to
// nodes (with extra replicas for the Zipf head), a membership view with
// monotonic view numbers names who is serving, and a thin coordinator
// answers HELLO/ADMIT/RESUME with REDIRECTs, detects node failure by
// heartbeat, fails sessions over to replica nodes, and reconfigures
// live — a node can be added or drained through a view change without
// dropping streams on the survivors. Nodes are disposable: losing one
// loses at most that node's unreplicated streams.
package cluster

import (
	"fmt"
)

// MemberState is a node's standing in the current view.
type MemberState string

const (
	// StateActive nodes serve sessions and receive new placements.
	StateActive MemberState = "active"
	// StateDraining nodes finish their current sessions but receive no
	// new placements; once empty they leave the view (live drain).
	StateDraining MemberState = "draining"
	// StateDead nodes failed their heartbeats; their sessions fail over
	// to replicas, and they receive no placements.
	StateDead MemberState = "dead"
)

// Member is one node of the cluster as a view records it.
type Member struct {
	ID string `json:"id"`
	// Addr is the node's framed-session address; HTTPAddr its status
	// surface (may be empty).
	Addr     string      `json:"addr"`
	HTTPAddr string      `json:"http_addr,omitempty"`
	State    MemberState `json:"state"`
	// Sessions and Active are the node's last heartbeat-reported load
	// (connected sessions / live engine streams).
	Sessions int `json:"sessions"`
	Active   int `json:"active"`
}

// View is one membership epoch. Views are totally ordered by Number:
// every membership change (add, drain, death, removal) produces a new
// view with a strictly larger number, so any two observers agree on
// which of two views is fresher.
type View struct {
	Number  int64    `json:"number"`
	Members []Member `json:"members"`
	// Placement summarizes the routing map at this view: titles served
	// per node (replicas counted on every holder). Informational — the
	// coordinator owns the authoritative map.
	Placement map[string]int `json:"placement,omitempty"`
}

// Clone deep-copies the view.
func (v *View) Clone() *View {
	out := &View{Number: v.Number, Members: append([]Member(nil), v.Members...)}
	if v.Placement != nil {
		out.Placement = make(map[string]int, len(v.Placement))
		for k, n := range v.Placement {
			out.Placement[k] = n
		}
	}
	return out
}

// Member returns the member with the given ID, if present.
func (v *View) Member(id string) (Member, bool) {
	for _, m := range v.Members {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

// String renders a compact one-line view description.
func (v *View) String() string {
	s := fmt.Sprintf("view %d:", v.Number)
	for _, m := range v.Members {
		s += fmt.Sprintf(" %s(%s)", m.ID, m.State)
	}
	return s
}
