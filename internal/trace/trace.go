// Package trace records and verifies delivery traces: which tracks each
// stream received, in which cycles, with what content. It turns the
// paper's informal service guarantees into checkable predicates:
//
//   - integrity: every delivered track's bytes equal the stored object's
//     bytes at that position (reconstruction is provably correct);
//   - continuity: per stream, track t is delivered in cycle start+t — a
//     constant-bandwidth stream never stalls, it either delivers or
//     hiccups on schedule;
//   - completeness: every track was either delivered or accounted for as
//     a hiccup (nothing silently dropped);
//   - containment: hiccups occur only inside declared windows (e.g. the
//     C-cycle transition after a failure).
package trace

import (
	"bytes"
	"fmt"
	"sort"

	"ftmm/internal/sched"
)

// Event is one delivered or lost track.
type Event struct {
	Cycle    int
	StreamID int
	ObjectID string
	Track    int
	// Lost marks a hiccup; Data is nil for lost tracks.
	Lost          bool
	Reason        string
	Reconstructed bool
	Data          []byte
}

// Recorder accumulates events from cycle reports.
type Recorder struct {
	events []Event
	// content maps object ID to its full stored byte stream.
	content   map[string][]byte
	trackSize int
}

// NewRecorder creates a Recorder. content maps object IDs to the exact
// bytes stored (as produced by workload.SyntheticContent); trackSize is
// the farm's track size in bytes.
func NewRecorder(content map[string][]byte, trackSize int) (*Recorder, error) {
	if trackSize <= 0 {
		return nil, fmt.Errorf("trace: track size %d must be positive", trackSize)
	}
	return &Recorder{content: content, trackSize: trackSize}, nil
}

// Observe folds one cycle report into the trace. Delivered bytes are
// copied: engines recycle a report's track buffers after the next Step,
// but a trace retains content for verification at the end of the run.
func (r *Recorder) Observe(rep *sched.CycleReport) {
	for _, d := range rep.Delivered {
		r.events = append(r.events, Event{
			Cycle: rep.Cycle, StreamID: d.StreamID, ObjectID: d.ObjectID,
			Track: d.Track, Reconstructed: d.Reconstructed,
			Data: append([]byte(nil), d.Data...),
		})
	}
	for _, h := range rep.Hiccups {
		r.events = append(r.events, Event{
			Cycle: rep.Cycle, StreamID: h.StreamID, ObjectID: h.ObjectID,
			Track: h.Track, Lost: true, Reason: h.Reason,
		})
	}
}

// Events returns the recorded events in observation order.
func (r *Recorder) Events() []Event { return r.events }

// Hiccups returns only the lost-track events.
func (r *Recorder) Hiccups() []Event {
	var out []Event
	for _, e := range r.events {
		if e.Lost {
			out = append(out, e)
		}
	}
	return out
}

// perStream groups events by stream, ordered by track.
func (r *Recorder) perStream() map[int][]Event {
	m := map[int][]Event{}
	for _, e := range r.events {
		m[e.StreamID] = append(m[e.StreamID], e)
	}
	for id := range m {
		es := m[id]
		sort.Slice(es, func(i, j int) bool { return es[i].Track < es[j].Track })
	}
	return m
}

// CheckTrack is the single definition of bit-exactness: a correct
// delivery of the given track carries trackSize bytes of content at the
// track's offset, zero-padded past the end of the object. It allocates
// nothing, so network clients (ftmmload) can verify every received
// track on the fly with the same predicate the server-side trace uses.
func CheckTrack(content []byte, trackSize, track int, got []byte) error {
	if trackSize <= 0 {
		return fmt.Errorf("trace: track size %d must be positive", trackSize)
	}
	if len(got) != trackSize {
		return fmt.Errorf("trace: track %d carries %d bytes, want %d", track, len(got), trackSize)
	}
	start := track * trackSize
	if track < 0 || start >= len(content) {
		return fmt.Errorf("trace: track %d beyond content (%d bytes)", track, len(content))
	}
	end := start + trackSize
	if end > len(content) {
		end = len(content)
	}
	if !bytes.Equal(got[:end-start], content[start:end]) {
		return fmt.Errorf("trace: track %d: content differs", track)
	}
	for _, b := range got[end-start:] { // final partial track, zero padded
		if b != 0 {
			return fmt.Errorf("trace: track %d: padding past object end is not zero", track)
		}
	}
	return nil
}

// VerifyIntegrity checks every delivered track's bytes against the
// stored content.
func (r *Recorder) VerifyIntegrity() error {
	for _, e := range r.events {
		if e.Lost {
			continue
		}
		content, ok := r.content[e.ObjectID]
		if !ok {
			return fmt.Errorf("trace: delivery of unknown object %q", e.ObjectID)
		}
		if err := CheckTrack(content, r.trackSize, e.Track, e.Data); err != nil {
			return fmt.Errorf("trace: stream %d object %q (cycle %d, reconstructed=%v): %w",
				e.StreamID, e.ObjectID, e.Cycle, e.Reconstructed, err)
		}
	}
	return nil
}

// VerifyContinuity checks that each stream's events cover consecutive
// tracks 0..max with exactly one event per track, delivered one track per
// delivery slot: for every consecutive pair of events the cycle gap
// equals the track gap (after the stream's own start).
func (r *Recorder) VerifyContinuity() error {
	for id, es := range r.perStream() {
		for i, e := range es {
			if e.Track != i {
				return fmt.Errorf("trace: stream %d: track %d missing or duplicated (event %d has track %d)", id, i, i, e.Track)
			}
		}
		// Deliveries happen in track order over cycles; a track is never
		// delivered before an earlier one.
		sort.Slice(es, func(i, j int) bool { return es[i].Cycle < es[j].Cycle })
		prev := -1
		for _, e := range es {
			if e.Track < prev {
				return fmt.Errorf("trace: stream %d: track %d delivered after track %d", id, e.Track, prev)
			}
			prev = e.Track
		}
	}
	return nil
}

// VerifyComplete checks each listed stream received (or hiccuped) every
// track of its object.
func (r *Recorder) VerifyComplete(streams map[int]string) error {
	per := r.perStream()
	for id, objID := range streams {
		content, ok := r.content[objID]
		if !ok {
			return fmt.Errorf("trace: unknown object %q for stream %d", objID, id)
		}
		wantTracks := (len(content) + r.trackSize - 1) / r.trackSize
		if got := len(per[id]); got != wantTracks {
			return fmt.Errorf("trace: stream %d: %d of %d tracks accounted for", id, got, wantTracks)
		}
	}
	return nil
}

// VerifyHiccupsWithin checks every hiccup lies inside one of the allowed
// cycle windows [from, to].
func (r *Recorder) VerifyHiccupsWithin(windows [][2]int) error {
	for _, e := range r.Hiccups() {
		ok := false
		for _, w := range windows {
			if e.Cycle >= w[0] && e.Cycle <= w[1] {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("trace: hiccup at cycle %d (stream %d, %s track %d) outside allowed windows %v",
				e.Cycle, e.StreamID, e.ObjectID, e.Track, windows)
		}
	}
	return nil
}

// Summary aggregates the trace.
type Summary struct {
	Delivered      int
	Hiccups        int
	Reconstructed  int
	Streams        int
	FirstCycle     int
	LastCycle      int
	HiccupStreams  int
	HiccupsByCause map[string]int
}

// Summarize computes the aggregate view.
func (r *Recorder) Summarize() Summary {
	s := Summary{FirstCycle: -1, HiccupsByCause: map[string]int{}}
	streams := map[int]bool{}
	hiccupStreams := map[int]bool{}
	for _, e := range r.events {
		streams[e.StreamID] = true
		if s.FirstCycle < 0 || e.Cycle < s.FirstCycle {
			s.FirstCycle = e.Cycle
		}
		if e.Cycle > s.LastCycle {
			s.LastCycle = e.Cycle
		}
		if e.Lost {
			s.Hiccups++
			hiccupStreams[e.StreamID] = true
			s.HiccupsByCause[e.Reason]++
			continue
		}
		s.Delivered++
		if e.Reconstructed {
			s.Reconstructed++
		}
	}
	s.Streams = len(streams)
	s.HiccupStreams = len(hiccupStreams)
	return s
}
