package schemes

import (
	"fmt"
	"time"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// StaggeredGroup is the §2 memory-saving variant: the layout and the
// failure tolerance are exactly Streaming RAID's, but the cycle is the
// display time of a single track (B/b0) and a stream reads its whole next
// parity group only once every C-1 cycles, delivering one track per cycle
// in between. Streams are staggered across read phases, so their buffer
// sawtooths interleave (Figure 4) and the farm-wide peak is roughly half
// of Streaming RAID's.
type StaggeredGroup struct {
	engineCore
	streams []*sgStream
}

type sgStream struct {
	sched.Stream
	// phase selects the stream's read cycles: cycle ≡ phase (mod C-1).
	phase int
	// nextGroup is the next parity-group index to read.
	nextGroup int
	// buf is the group draining one track per cycle; pending is the group
	// read this cycle, installed once buf finishes draining. Lockstep
	// streams of one title may share both, so the drain state lives here:
	// bufNext is the next in-group offset of buf to deliver, and
	// bufPooled/pendingPooled count down this stream's pool hold on each.
	buf           *bufferedGroup
	pending       *bufferedGroup
	bufNext       int
	bufPooled     int
	pendingPooled int
}

func (s *sgStream) stream() *sched.Stream { return &s.Stream }

// NewStaggeredGroup builds the engine over a dedicated-parity layout.
func NewStaggeredGroup(cfg Config) (*StaggeredGroup, error) {
	if cfg.Layout != nil && cfg.Layout.Placement() != layout.DedicatedParity {
		return nil, fmt.Errorf("schemes: Staggered-group needs dedicated parity, got %v", cfg.Layout.Placement())
	}
	core, err := newEngineCore(cfg, 1)
	if err != nil {
		return nil, err
	}
	return &StaggeredGroup{engineCore: core}, nil
}

// Name implements Simulator.
func (e *StaggeredGroup) Name() string { return "Staggered-group" }

// CycleTime implements Simulator: Tcyc = B/b0 (k' = 1).
func (e *StaggeredGroup) CycleTime() time.Duration {
	return e.cfg.Farm.Params().CycleTime(1, e.cfg.Rate)
}

// Active implements Simulator.
func (e *StaggeredGroup) Active() int { return activeCount(e.streams) }

// StreamProgress reports the next track owed to the stream and its
// object's total tracks; ok is false for unknown streams.
func (e *StaggeredGroup) StreamProgress(id int) (next, total int, ok bool) {
	return streamProgress(e.streams, id)
}

// AddStream implements Simulator. The stream's read phase is the
// admission cycle mod C-1; only streams sharing a phase ever touch the
// same disks in the same cycle (different phases read in different
// cycles), and same-phase streams advance clusters in lockstep, so
// admission checks the count of same-phase streams currently on the new
// stream's start cluster.
func (e *StaggeredGroup) AddStream(obj *layout.Object) (int, error) {
	return e.AddStreamAt(obj, 0)
}

// AddStreamAt admits a stream beginning at the given parity group — the
// session-resume seam. The stream joins the phase of its admission cycle
// like any newcomer; only its start cluster and delivery origin move.
func (e *StaggeredGroup) AddStreamAt(obj *layout.Object, startGroup int) (int, error) {
	if err := checkStartGroup(obj, startGroup); err != nil {
		return 0, err
	}
	width := e.cfg.Layout.GroupWidth()
	phase := e.cycle % width
	start := obj.Groups[startGroup].Cluster
	load := 0
	for _, s := range e.streams {
		if s.Done || s.Terminated || s.phase != phase || s.nextGroup >= len(s.Obj.Groups) {
			continue
		}
		if s.Obj.Groups[s.nextGroup].Cluster == start {
			load++
		}
	}
	if load >= e.slotsPerDisk {
		return 0, fmt.Errorf("schemes: phase %d of cluster %d is at its %d-stream capacity", phase, start, e.slotsPerDisk)
	}
	id := e.allocStreamID()
	e.streams = append(e.streams, &sgStream{
		Stream:    sched.Stream{ID: id, Obj: obj, NextDeliver: startGroup * width},
		phase:     phase,
		nextGroup: startGroup,
	})
	return id, nil
}

// CancelStream stops serving a stream immediately and returns its
// buffers.
func (e *StaggeredGroup) CancelStream(id int) error {
	s, err := findActive(e.streams, id)
	if err != nil {
		return err
	}
	s.Done = true
	if err := e.pool.Release(s.bufPooled + s.pendingPooled); err != nil {
		return err
	}
	// The last sharer's drop recycles a group's buffers to the arena.
	e.unshareGroup(s.buf)
	e.unshareGroup(s.pending)
	s.buf, s.pending = nil, nil
	s.bufPooled, s.pendingPooled = 0, 0
	return nil
}

// Step implements Simulator.
func (e *StaggeredGroup) Step() (*sched.CycleReport, error) {
	ctx, err := e.beginCycle()
	if err != nil {
		return nil, err
	}
	width := e.cfg.Layout.GroupWidth()

	// Read pass: streams at their phase read their next whole group. As
	// in Streaming RAID, each reading stream touches exactly one cluster
	// this cycle, so the pass fans out per cluster; the buffer pool only
	// grows here, keeping its peak worker-count-independent. Same-phase
	// streams staging the same group share one physical read through the
	// stage cache; each keeps its own drain cursor and pool countdown.
	merge := !e.cfg.DisableMergedReads
	if merge {
		e.ensureStageCaches()
	}
	readers := make([][]*sgStream, e.cfg.Layout.Clusters())
	for _, s := range e.streams {
		if s.Done || s.Terminated || e.cycle%width != s.phase || s.nextGroup >= len(s.Obj.Groups) {
			continue
		}
		cl := s.Obj.Groups[s.nextGroup].Cluster
		readers[cl] = append(readers[cl], s)
	}
	if err := e.runClusters(ctx, func(shard *sched.CycleContext, cl int) error {
		var cache map[*layout.Group]*bufferedGroup
		if merge && len(readers[cl]) > 1 {
			cache = e.stageCacheFor(cl)
		}
		for _, s := range readers[cl] {
			g := &s.Obj.Groups[s.nextGroup]
			s.nextGroup++
			staged, err := e.stageGroup(shard, g, cache)
			if err != nil {
				return err
			}
			// The staged group holds C-1 data buffers plus the parity
			// buffer; parity is dropped at the end of this read cycle (its
			// only post-read use is masking a failure during the read).
			s.pending = staged
			s.pendingPooled = staged.pooled
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Delivery pass: one track per active stream per cycle; releases
	// happen here so the read pass above records the within-cycle peak.
	for _, s := range e.streams {
		if s.Done || s.Terminated {
			continue
		}
		if s.buf != nil && s.bufNext < s.buf.group.ValidTracks {
			e.deliverOne(s, ctx.Rep)
			if s.bufPooled > 0 {
				if err := e.pool.Release(1); err != nil {
					return nil, err
				}
				s.bufPooled--
			}
		}
		if s.buf != nil && s.bufNext >= s.buf.group.ValidTracks {
			// Fully drained (padding tracks, if any, are released too).
			if s.bufPooled > 0 {
				if err := e.pool.Release(s.bufPooled); err != nil {
					return nil, err
				}
				s.bufPooled = 0
			}
			e.unshareGroup(s.buf)
			s.buf = nil
		}
		if s.pending != nil {
			// Drop the pending group's parity buffer at end of its read
			// cycle, then promote it if the previous group has drained.
			if s.pendingPooled > 0 {
				if err := e.pool.Release(1); err != nil {
					return nil, err
				}
				s.pendingPooled--
			}
			if s.buf == nil {
				s.buf, s.bufNext, s.bufPooled = s.pending, 0, s.pendingPooled
				s.pending, s.pendingPooled = nil, 0
			}
		}
		if s.Done {
			ctx.Rep.Finished = append(ctx.Rep.Finished, s.ID)
		}
	}

	return e.endCycle(ctx), nil
}

// deliverOne sends the next track of the stream's buffered group.
func (e *StaggeredGroup) deliverOne(s *sgStream, rep *sched.CycleReport) {
	bg := s.buf
	width := len(bg.group.Data)
	base := bg.group.Index * width
	off := s.bufNext
	s.bufNext++
	if data, ref := e.takeTrack(bg, off); data == nil {
		rep.Hiccups = append(rep.Hiccups, sched.Hiccup{
			StreamID: s.ID, ObjectID: s.Obj.ID, Track: base + off,
			Reason: "parity group unrecoverable",
		})
	} else {
		rep.Delivered = append(rep.Delivered, sched.Delivery{
			StreamID: s.ID, ObjectID: s.Obj.ID, Track: base + off,
			Data: data, Buf: ref, Reconstructed: bg.reconstructed[off],
		})
	}
	s.Advance(1)
}
