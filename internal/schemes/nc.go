package schemes

import (
	"errors"
	"fmt"
	"time"

	"ftmm/internal/buffer"
	"ftmm/internal/layout"
	"ftmm/internal/parity"
	"ftmm/internal/sched"
)

// TransitionPolicy selects how a Non-clustered cluster moves into
// degraded mode after a data-disk failure.
type TransitionPolicy int

const (
	// SimpleSwitchover (Figure 6): the cluster immediately shifts to
	// group-at-a-time reads; streams caught mid-group drop all remaining
	// tracks of their current group.
	SimpleSwitchover TransitionPolicy = iota
	// AlternateSwitchover (Figure 7): streams caught mid-group keep
	// their per-track schedule (losing only the failed disk's unread
	// track), and streams at a group boundary run an XOR accumulator,
	// delaying the extra reads until the cycle the missing track is
	// needed. Loses strictly fewer tracks than SimpleSwitchover.
	AlternateSwitchover
)

// String names the policy.
func (p TransitionPolicy) String() string {
	switch p {
	case SimpleSwitchover:
		return "simple"
	case AlternateSwitchover:
		return "alternate"
	default:
		return fmt.Sprintf("TransitionPolicy(%d)", int(p))
	}
}

// ncClusterMode is the operating mode of one cluster.
type ncClusterMode int

const (
	ncNormal ncClusterMode = iota
	// ncParityLost: the parity drive failed; normal operation continues
	// (parity is never read in normal mode) but protection is gone.
	ncParityLost
	// ncDegraded: a data drive failed and a buffer server carries the
	// cluster through group-at-a-time (or XOR-accumulator) operation.
	ncDegraded
	// ncUnprotected: a data drive failed and no buffer server was free —
	// the paper's degradation of service. The failed drive's track is
	// lost on every pass.
	ncUnprotected
)

type ncCluster struct {
	mode ncClusterMode
	// failedOffset is the in-cluster index of the failed data drive
	// (0..C-2), meaningful in ncDegraded/ncUnprotected.
	failedOffset int
}

type ncStaged struct {
	data          []byte
	reconstructed bool
	// ref, when non-nil, is this stream's reference on a track buffer
	// shared with lockstep streams of the same title (a merged read);
	// data is then ref.Bytes() and the buffer goes home on the last
	// Release, never through a plain arena Put.
	ref *buffer.Ref
}

// ncTrackKey names one data track of one title: a parity group and an
// in-group offset. Lockstep streams reading the same key in the same
// normal-mode cycle share one physical read.
type ncTrackKey struct {
	g *layout.Group
	o int
}

// ncReadSrc locates the staged entry of the first stream to read a key
// this cycle, so later sharers can reference its buffer.
type ncReadSrc struct {
	s *ncStream
	r int
}

type ncStream struct {
	sched.Stream
	// read is the absolute index of the next data track to read.
	read int
	// startCycle is the cycle of the stream's first read (-1 before);
	// delivery begins the following cycle.
	startCycle int
	// staged maps absolute track index -> buffered content.
	staged map[int]ncStaged
	// lost marks absolute track indices that will hiccup when due.
	lost map[int]bool
	// legacyGroup, when >= 0, is a group the stream finishes with plain
	// per-track reads even though its cluster is degraded (alternate
	// switchover for streams caught mid-group).
	legacyGroup int
	// xor is the running accumulator for the group being read on a
	// degraded cluster under the alternate policy.
	xor      []byte
	xorGroup int
}

func (s *ncStream) stream() *sched.Stream { return &s.Stream }

// NonClustered is the §3 engine: in normal mode each stream reads exactly
// the track it delivers next cycle (two buffers per stream). A data-disk
// failure sends that cluster through a short transition — losing a few
// tracks per Figures 6-7 — into a degraded mode backed by one of K shared
// buffer servers, after which service continues hiccup-free.
type NonClustered struct {
	engineCore
	policy   TransitionPolicy
	streams  []*ncStream
	servers  *buffer.Servers
	clusters []ncCluster
	// degradations counts failures that found no free buffer server.
	degradations int
	// readCaches[cl] maps a track to its first reader this cycle on
	// cluster cl (same-title read merging, normal-mode cycles only); one
	// map per cluster so each is touched by a single read-phase worker.
	readCaches []map[ncTrackKey]ncReadSrc
}

// NewNonClustered builds the engine with K shared buffer servers.
func NewNonClustered(cfg Config, policy TransitionPolicy, k int) (*NonClustered, error) {
	if cfg.Layout != nil && cfg.Layout.Placement() != layout.DedicatedParity {
		return nil, fmt.Errorf("schemes: Non-clustered needs dedicated parity, got %v", cfg.Layout.Placement())
	}
	if policy != SimpleSwitchover && policy != AlternateSwitchover {
		return nil, fmt.Errorf("schemes: unknown transition policy %v", policy)
	}
	core, err := newEngineCore(cfg, 1)
	if err != nil {
		return nil, err
	}
	servers, err := buffer.NewServers(k)
	if err != nil {
		return nil, err
	}
	return &NonClustered{
		engineCore: core, policy: policy, servers: servers,
		clusters: make([]ncCluster, cfg.Layout.Clusters()),
	}, nil
}

// Name implements Simulator.
func (e *NonClustered) Name() string { return "Non-clustered" }

// CycleTime implements Simulator: Tcyc = B/b0 (k' = 1).
func (e *NonClustered) CycleTime() time.Duration {
	return e.cfg.Farm.Params().CycleTime(1, e.cfg.Rate)
}

// Active implements Simulator.
func (e *NonClustered) Active() int { return activeCount(e.streams) }

// StreamProgress reports the next track owed to the stream and its
// object's total tracks; ok is false for unknown streams.
func (e *NonClustered) StreamProgress(id int) (next, total int, ok bool) {
	return streamProgress(e.streams, id)
}

// Degradations counts data-disk failures that found every buffer server
// busy (the paper's degradation-of-service events).
func (e *NonClustered) Degradations() int { return e.degradations }

// ClusterDegraded reports whether the cluster is running degraded.
func (e *NonClustered) ClusterDegraded(cl int) bool {
	if cl < 0 || cl >= len(e.clusters) {
		return false
	}
	return e.clusters[cl].mode == ncDegraded || e.clusters[cl].mode == ncUnprotected
}

// ClusterUnprotected reports whether the cluster is in the paper's
// degradation-of-service mode: a data drive failed with every buffer
// server busy, so the failed drive's track is lost on every pass. The
// chaos harness's continuity checker exempts streams on unprotected
// clusters from the bounded-loss-window invariant, which only holds
// when a buffer server carries the cluster.
func (e *NonClustered) ClusterUnprotected(cl int) bool {
	if cl < 0 || cl >= len(e.clusters) {
		return false
	}
	return e.clusters[cl].mode == ncUnprotected
}

// width returns C-1.
func (e *NonClustered) width() int { return e.cfg.Layout.GroupWidth() }

// position splits an absolute track index into (group, offset).
func (e *NonClustered) position(r int) (g, o int) {
	return r / e.width(), r % e.width()
}

// AddStream implements Simulator. A Non-clustered stream reads one track
// per cycle, walking the drives of its current cluster in order; two
// streams conflict only when they sit at the same (cluster, offset), and
// they advance in lockstep, so admission checks the occupancy of the new
// stream's starting position.
func (e *NonClustered) AddStream(obj *layout.Object) (int, error) {
	return e.AddStreamAt(obj, 0)
}

// AddStreamAt admits a stream beginning at the given parity group — the
// session-resume seam. The stream's first read lands at the start
// group's offset 0, so the occupancy check moves with it; after that it
// advances in lockstep like any stream that reached the position
// naturally.
func (e *NonClustered) AddStreamAt(obj *layout.Object, startGroup int) (int, error) {
	if err := checkStartGroup(obj, startGroup); err != nil {
		return 0, err
	}
	start := obj.Groups[startGroup].Cluster
	load := 0
	for _, s := range e.streams {
		if s.Done || s.Terminated || s.read >= s.Obj.Tracks {
			continue
		}
		g, o := e.position(s.read)
		if o == 0 && s.Obj.Groups[g].Cluster == start {
			load++
		}
	}
	if load >= e.slotsPerDisk {
		return 0, fmt.Errorf("schemes: position (cluster %d, offset 0) is at its %d-stream capacity", start, e.slotsPerDisk)
	}
	startTrack := startGroup * e.width()
	id := e.allocStreamID()
	e.streams = append(e.streams, &ncStream{
		Stream: sched.Stream{ID: id, Obj: obj, NextDeliver: startTrack},
		read:   startTrack,
		staged: make(map[int]ncStaged), lost: make(map[int]bool),
		legacyGroup: -1, xorGroup: -1, startCycle: -1,
	})
	return id, nil
}

// CancelStream stops serving a stream immediately and returns its
// buffers (staged tracks and any XOR accumulator).
func (e *NonClustered) CancelStream(id int) error {
	s, err := findActive(e.streams, id)
	if err != nil {
		return err
	}
	s.Done = true
	if err := e.dropStaged(s); err != nil {
		return err
	}
	e.dropXOR(s)
	return nil
}

// dropStaged returns every track still staged for the stream: its pool
// hold and its buffer (or its reference on a shared one).
func (e *NonClustered) dropStaged(s *ncStream) error {
	for r, st := range s.staged {
		delete(s.staged, r)
		if st.ref != nil {
			st.ref.Release()
		} else {
			e.arena.Put(st.data)
		}
		if err := e.pool.Release(1); err != nil {
			return err
		}
	}
	return nil
}

// FailDisk implements Simulator: the drive fails at the upcoming cycle
// boundary, and the owning cluster transitions per the policy.
func (e *NonClustered) FailDisk(id int) error {
	drv, err := e.cfg.Farm.Drive(id)
	if err != nil {
		return err
	}
	if err := drv.Fail(); err != nil {
		return err
	}
	cl, err := e.cfg.Farm.ClusterOf(id)
	if err != nil {
		return err
	}
	offset := id % e.cfg.Farm.ClusterSize()
	if offset == e.cfg.Farm.ClusterSize()-1 {
		// Dedicated parity drive: no operational impact in normal mode.
		if e.clusters[cl].mode == ncNormal {
			e.clusters[cl].mode = ncParityLost
		}
		return nil
	}
	st := &e.clusters[cl]
	st.failedOffset = offset
	if err := e.servers.Attach(cl); err != nil {
		if errors.Is(err, buffer.ErrExhausted) {
			st.mode = ncUnprotected
			e.degradations++
		} else {
			return err
		}
	} else {
		st.mode = ncDegraded
	}
	e.transition(cl, offset)
	return nil
}

// transition applies the policy to streams caught mid-group on the
// failed cluster.
func (e *NonClustered) transition(cl, failedOffset int) {
	width := e.width()
	for _, s := range e.streams {
		if s.Done || s.Terminated || s.read >= s.Obj.Tracks {
			continue
		}
		g, o := e.position(s.read)
		if s.Obj.Groups[g].Cluster != cl || o == 0 {
			continue
		}
		groupEnd := (g + 1) * width
		if groupEnd > s.Obj.Tracks {
			groupEnd = s.Obj.Tracks
		}
		switch e.policy {
		case SimpleSwitchover:
			// Drop every remaining track of the current group.
			for r := s.read; r < groupEnd; r++ {
				s.lost[r] = true
			}
			s.read = groupEnd
		case AlternateSwitchover:
			// Keep the schedule; only the failed drive's unread track is
			// unrecoverable (earlier tracks have left the buffers).
			failedTrack := g*width + failedOffset
			if failedTrack >= s.read && failedTrack < groupEnd {
				s.lost[failedTrack] = true
			}
			s.legacyGroup = g
		}
	}
}

// RepairDisk replaces the failed drive, rebuilds its contents from
// parity (rebuild mode), returns the cluster to normal operation, and
// frees its buffer server.
func (e *NonClustered) RepairDisk(id int) error {
	drv, err := e.cfg.Farm.Drive(id)
	if err != nil {
		return err
	}
	if err := drv.Replace(); err != nil {
		return err
	}
	if err := layout.RebuildDrive(e.cfg.Farm, e.cfg.Layout, id); err != nil {
		return err
	}
	return e.OnDriveRebuilt(id)
}

// OnDriveRebuilt tells the engine a drive's contents are whole again
// (after an external — possibly incremental — rebuild): the cluster
// returns to normal operation and its buffer server is released.
func (e *NonClustered) OnDriveRebuilt(id int) error {
	cl, err := e.cfg.Farm.ClusterOf(id)
	if err != nil {
		return err
	}
	st := &e.clusters[cl]
	switch st.mode {
	case ncDegraded:
		if err := e.servers.Detach(cl); err != nil {
			return err
		}
	case ncParityLost, ncUnprotected, ncNormal:
		// nothing extra
	}
	st.mode = ncNormal
	// Streams finishing a group in a special mode revert to plain reads.
	for _, s := range e.streams {
		if s.xorGroup >= 0 && s.Obj.Groups[s.xorGroup].Cluster == cl {
			e.dropXOR(s)
		}
		if s.legacyGroup >= 0 && s.Obj.Groups[s.legacyGroup].Cluster == cl {
			s.legacyGroup = -1
		}
	}
	return nil
}

// dropXOR releases a stream's accumulator buffer (accounting and bytes).
func (e *NonClustered) dropXOR(s *ncStream) {
	if s.xor != nil {
		_ = e.pool.Release(1)
		e.arena.Put(s.xor)
		s.xor = nil
	}
	s.xorGroup = -1
}

// Step implements Simulator.
func (e *NonClustered) Step() (*sched.CycleReport, error) {
	ctx, err := e.beginCycle()
	if err != nil {
		return nil, err
	}

	degraded := 0
	for _, c := range e.clusters {
		if c.mode == ncDegraded || c.mode == ncUnprotected {
			degraded++
		}
	}
	e.rec.DegradedClusterCycles.Add(int64(degraded))

	if degraded > 0 {
		// Degraded-mode work (group reads, XOR accumulators) releases
		// buffers mid-read and its slot priority depends on pass order,
		// so degraded cycles keep the engine's original serial two-pass
		// schedule: deadline-bound degraded reads take slots first.
		for _, s := range e.streams {
			if e.readable(s) && e.isDegradedWork(s) {
				if err := e.readForStream(s, ctx, nil); err != nil {
					return nil, err
				}
			}
		}
		for _, s := range e.streams {
			if e.readable(s) && !e.isDegradedWork(s) {
				if err := e.readForStream(s, ctx, nil); err != nil {
					return nil, err
				}
			}
		}
	} else {
		// Normal steady state: every read is a plain single-track read on
		// the stream's current cluster — acquire-only on the pool and
		// disjoint across clusters — so the pass fans out per cluster.
		// Lockstep streams of one title reading the same track share one
		// physical read (degraded cycles above never merge).
		merge := !e.cfg.DisableMergedReads
		if merge && e.readCaches == nil {
			e.readCaches = make([]map[ncTrackKey]ncReadSrc, len(e.clusters))
		}
		readers := make([][]*ncStream, e.cfg.Layout.Clusters())
		for _, s := range e.streams {
			if !e.readable(s) {
				continue
			}
			g, _ := e.position(s.read)
			cl := s.Obj.Groups[g].Cluster
			readers[cl] = append(readers[cl], s)
		}
		if err := e.runClusters(ctx, func(shard *sched.CycleContext, cl int) error {
			var cache map[ncTrackKey]ncReadSrc
			if merge && len(readers[cl]) > 1 {
				cache = cycleCache(&e.readCaches[cl])
			}
			for _, s := range readers[cl] {
				if err := e.readForStream(s, shard, cache); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Delivery pass.
	for _, s := range e.streams {
		if s.Done || s.Terminated || s.startCycle < 0 || e.cycle <= s.startCycle {
			continue
		}
		r := s.NextDeliver
		if st, ok := s.staged[r]; ok {
			// A shared track's reference moves to the release list; a
			// private buffer gets its ref minted here.
			ref := st.ref
			if ref == nil {
				ref = e.shareDelivered(st.data)
			} else {
				e.delivered = append(e.delivered, ref)
			}
			ctx.Rep.Delivered = append(ctx.Rep.Delivered, sched.Delivery{
				StreamID: s.ID, ObjectID: s.Obj.ID, Track: r,
				Data: st.data, Buf: ref, Reconstructed: st.reconstructed,
			})
			delete(s.staged, r)
			if err := e.pool.Release(1); err != nil {
				return nil, err
			}
		} else {
			reason := "track lost in degraded-mode transition"
			if !s.lost[r] {
				reason = "track not staged (overload)"
			}
			delete(s.lost, r)
			ctx.Rep.Hiccups = append(ctx.Rep.Hiccups, sched.Hiccup{
				StreamID: s.ID, ObjectID: s.Obj.ID, Track: r, Reason: reason,
			})
		}
		s.Advance(1)
		if s.Done {
			ctx.Rep.Finished = append(ctx.Rep.Finished, s.ID)
			// Release anything still staged (early reads past the end
			// cannot exist, but be defensive) and the accumulator.
			if err := e.dropStaged(s); err != nil {
				return nil, err
			}
			e.dropXOR(s)
		}
	}

	return e.endCycle(ctx), nil
}

// readable reports whether the stream has read work this cycle.
func (e *NonClustered) readable(s *ncStream) bool {
	if s.Done || s.Terminated || s.read >= s.Obj.Tracks {
		return false
	}
	// Before the first read the target is the delivery origin (track 0
	// for normal admissions, the resume point for AddStreamAt streams);
	// afterwards the stream reads one track ahead of delivery.
	target := s.NextDeliver
	if s.startCycle >= 0 {
		target = s.NextDeliver + 1
	}
	return s.read <= target
}

// isDegradedWork reports whether the stream's next read touches a
// degraded cluster in a mode that needs priority slots.
func (e *NonClustered) isDegradedWork(s *ncStream) bool {
	g, o := e.position(s.read)
	cl := s.Obj.Groups[g].Cluster
	if e.clusters[cl].mode != ncDegraded {
		return false
	}
	if s.legacyGroup == g {
		return false // finishing the group with plain reads
	}
	if e.policy == SimpleSwitchover {
		return o == 0
	}
	// Alternate: the reconstruction cycle (o == failedOffset) issues the
	// batched early reads.
	return o == e.clusters[cl].failedOffset
}

// readForStream performs the stream's reads for this cycle, recording
// into the given cycle context (a shard in parallel normal-mode passes).
// cache, non-nil only on the normal-mode parallel path, merges plain
// reads of the same track (see plainRead).
func (e *NonClustered) readForStream(s *ncStream, ctx *sched.CycleContext, cache map[ncTrackKey]ncReadSrc) error {
	if s.startCycle < 0 {
		s.startCycle = e.cycle
	}
	r := s.read
	if _, already := s.staged[r]; already {
		s.read++
		return nil
	}
	if s.lost[r] {
		s.read++
		return nil
	}
	g, o := e.position(r)
	grp := &s.Obj.Groups[g]
	cl := grp.Cluster
	state := e.clusters[cl]

	switch {
	case state.mode == ncNormal || state.mode == ncParityLost || s.legacyGroup == g:
		return e.plainRead(s, grp, r, o, ctx, cache)
	case state.mode == ncUnprotected:
		if o == state.failedOffset {
			s.lost[r] = true // recurring loss: the paper's degradation
			s.read++
			return nil
		}
		return e.plainRead(s, grp, r, o, ctx, nil)
	case state.mode == ncDegraded && e.policy == SimpleSwitchover:
		if o != 0 {
			// Mid-group on a degraded cluster outside legacy mode should
			// not happen (transition drops remnants), but read plainly if
			// it does.
			return e.plainRead(s, grp, r, o, ctx, nil)
		}
		return e.groupRead(s, grp, g, state.failedOffset, ctx)
	case state.mode == ncDegraded && e.policy == AlternateSwitchover:
		return e.xorRead(s, grp, g, o, state.failedOffset, ctx)
	}
	return fmt.Errorf("schemes: unhandled cluster mode %d", state.mode)
}

// plainRead reads a single track; on slot exhaustion or drive failure the
// track is lost.
//
// cache, when non-nil, merges same-title reads: a track another stream
// of this cluster already read this cycle is referenced instead of
// re-read. The sharer still takes its own slot first, counts the read
// and acquires its own pool track, so reports match the unmerged engine.
func (e *NonClustered) plainRead(s *ncStream, grp *layout.Group, r, o int, ctx *sched.CycleContext, cache map[ncTrackKey]ncReadSrc) error {
	s.read++
	loc := grp.Data[o]
	if !ctx.Slots.Take(loc.Disk) {
		s.lost[r] = true
		return nil
	}
	key := ncTrackKey{g: grp, o: o}
	if src, ok := cache[key]; ok {
		st := src.s.staged[src.r]
		if st.ref == nil {
			// Second reader: the first reader's buffer turns refcounted.
			st.ref = e.arena.Share(st.data)
			src.s.staged[src.r] = st
		}
		st.ref.Retain()
		ctx.Rep.DataReads++
		if err := e.pool.Acquire(1); err != nil {
			return err
		}
		s.staged[r] = ncStaged{data: st.data, ref: st.ref}
		return nil
	}
	drv, err := e.cfg.Farm.Drive(loc.Disk)
	if err != nil {
		return err
	}
	blk, err := readTrackArena(drv, loc.Track, e.arena)
	if err != nil {
		s.lost[r] = true
		return nil
	}
	ctx.Rep.DataReads++
	if err := e.pool.Acquire(1); err != nil {
		return err
	}
	s.staged[r] = ncStaged{data: blk}
	if cache != nil {
		cache[key] = ncReadSrc{s: s, r: r}
	}
	return nil
}

// groupRead stages an entire parity group at once (degraded steady state
// under the simple policy), reconstructing the failed drive's track.
func (e *NonClustered) groupRead(s *ncStream, grp *layout.Group, g, failedOffset int, ctx *sched.CycleContext) error {
	width := e.width()
	base := g * width
	groupEnd := base + width
	if groupEnd > s.Obj.Tracks {
		groupEnd = s.Obj.Tracks
	}
	s.read = groupEnd

	// Every offset of the group is read, padding tracks included (they
	// exist on disk as zeros and are needed for reconstruction).
	gr := groupRead{data: make([][]byte, len(grp.Data))}
	for j, loc := range grp.Data {
		if j == failedOffset {
			continue
		}
		if !ctx.Slots.Take(loc.Disk) {
			continue
		}
		drv, err := e.cfg.Farm.Drive(loc.Disk)
		if err != nil {
			return err
		}
		if blk, err := readTrackArena(drv, loc.Track, e.arena); err == nil {
			gr.data[j] = blk
			ctx.Rep.DataReads++
		}
	}
	reconstructedIdx := -1
	hadPar := false
	if ctx.Slots.Take(grp.Parity.Disk) {
		if drv, err := e.cfg.Farm.Drive(grp.Parity.Disk); err == nil {
			if blk, err := readTrackArena(drv, grp.Parity.Track, e.arena); err == nil {
				gr.par = blk
				hadPar = true
				ctx.Rep.ParityReads++
			}
		}
	}
	if gr.par != nil {
		// recoverGroup consumes the parity buffer on success (it becomes
		// the reconstructed track); otherwise recycle it below.
		if rec, err := gr.recoverGroup(); err == nil && rec >= 0 {
			reconstructedIdx = rec
			ctx.Rep.Reconstructions++
		}
		e.arena.Put(gr.par)
		gr.par = nil
	}
	// Parity occupied a buffer during the read; account and drop it.
	if hadPar {
		if err := e.pool.Acquire(1); err != nil {
			return err
		}
		if err := e.pool.Release(1); err != nil {
			return err
		}
	}
	for r := base; r < groupEnd; r++ {
		j := r - base
		if gr.data[j] == nil {
			s.lost[r] = true
			continue
		}
		if err := e.pool.Acquire(1); err != nil {
			return err
		}
		s.staged[r] = ncStaged{data: gr.data[j], reconstructed: j == reconstructedIdx}
		gr.data[j] = nil
	}
	// Padding tracks of a short final group were read for reconstruction
	// but are never staged; recycle them.
	for _, d := range gr.data {
		e.arena.Put(d)
	}
	return nil
}

// xorRead handles the alternate policy on a degraded cluster: tracks
// before the failed offset are read normally while folding into the
// accumulator; at the failed offset the remaining tracks and parity are
// read early and the missing track reconstructed; tracks beyond are
// already staged.
func (e *NonClustered) xorRead(s *ncStream, grp *layout.Group, g, o, failedOffset int, ctx *sched.CycleContext) error {
	width := e.width()
	base := g * width
	if o > failedOffset {
		// Past the reconstruction point without staged data (possible
		// only after an unusual repair/re-fail interleaving): read
		// plainly; the drive at this offset is healthy.
		return e.plainRead(s, grp, s.read, o, ctx, nil)
	}
	if o < failedOffset {
		if s.xorGroup != g {
			// Start the accumulator (one buffer).
			e.dropXOR(s)
			if err := e.pool.Acquire(1); err != nil {
				return err
			}
			s.xor = e.arena.GetZeroed()
			s.xorGroup = g
		}
		r := s.read
		if err := e.plainRead(s, grp, r, o, ctx, nil); err != nil {
			return err
		}
		if st, ok := s.staged[r]; ok {
			if err := parity.XORInto(s.xor, st.data); err != nil {
				return err
			}
		} else {
			// The read failed; the accumulator is now useless for
			// reconstruction.
			e.dropXOR(s)
		}
		return nil
	}

	// o == failedOffset: the reconstruction cycle. Read every remaining
	// track of the group plus parity, reconstruct, stage the lot.
	groupEnd := base + width
	if groupEnd > s.Obj.Tracks {
		groupEnd = s.Obj.Tracks
	}
	failedTrack := base + failedOffset
	s.read = groupEnd

	canRecon := s.xorGroup == g || failedOffset == 0
	if s.xorGroup != g && failedOffset == 0 {
		// Group starts at the failed drive: accumulator is trivially
		// empty.
		if err := e.pool.Acquire(1); err != nil {
			return err
		}
		s.xor = e.arena.GetZeroed()
		s.xorGroup = g
	}

	for r := failedTrack + 1; r < groupEnd; r++ {
		j := r - base
		loc := grp.Data[j]
		if !ctx.Slots.Take(loc.Disk) {
			s.lost[r] = true
			canRecon = false
			continue
		}
		drv, err := e.cfg.Farm.Drive(loc.Disk)
		if err != nil {
			return err
		}
		blk, err := readTrackArena(drv, loc.Track, e.arena)
		if err != nil {
			s.lost[r] = true
			canRecon = false
			continue
		}
		ctx.Rep.DataReads++
		if err := e.pool.Acquire(1); err != nil {
			return err
		}
		s.staged[r] = ncStaged{data: blk}
		if s.xor != nil {
			if err := parity.XORInto(s.xor, blk); err != nil {
				return err
			}
		}
	}
	var par []byte
	if ctx.Slots.Take(grp.Parity.Disk) {
		if drv, err := e.cfg.Farm.Drive(grp.Parity.Disk); err == nil {
			if blk, err := readTrackArena(drv, grp.Parity.Track, e.arena); err == nil {
				par = blk
				ctx.Rep.ParityReads++
			}
		}
	}
	if canRecon && par != nil && s.xor != nil && failedTrack < s.Obj.Tracks {
		if err := parity.XORInto(s.xor, par); err != nil {
			return err
		}
		// Padding tracks of a short final group are zero, so the fold
		// above is complete even when groupEnd < base+width.
		rec := s.xor
		s.xor = nil // buffer ownership moves to the staged track
		s.xorGroup = -1
		s.staged[failedTrack] = ncStaged{data: rec, reconstructed: true}
		ctx.Rep.Reconstructions++
	} else {
		if failedTrack < s.Obj.Tracks {
			s.lost[failedTrack] = true
		}
		e.dropXOR(s)
	}
	e.arena.Put(par) // parity's only use is the fold above
	return nil
}
