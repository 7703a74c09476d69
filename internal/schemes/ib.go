package schemes

import (
	"fmt"
	"time"

	"ftmm/internal/disk"
	"ftmm/internal/layout"
	"ftmm/internal/parity"
	"ftmm/internal/sched"
)

// ImprovedBandwidth is the §4 engine. The layout intermixes the parity of
// cluster i on the drives of cluster i+1, so in normal operation no
// bandwidth is spent on parity: every drive delivers data, and only a
// configurable reserve of slots per drive is held back.
//
// When a drive fails, the groups that lose a track read their parity
// block from the next cluster. If the parity block's drive has no free
// slot, one of that drive's scheduled local reads is dropped in its
// favor; the dropped group is treated as a partial failure and performs
// the same shift on cluster i+2, and so on to the right until idle
// capacity is found (Figure 8). When the chain finds none, service
// degrades: the stream at the end of the chain is terminated.
//
// A failure in the middle of a cycle cannot be masked for the groups
// whose track was scheduled but not yet read on the failing drive —
// parity is not being read concurrently in normal mode — producing the
// paper's one-time isolated hiccups; from the next cycle on, the shift
// masks the failure completely.
type ImprovedBandwidth struct {
	engineCore
	reserve int
	streams []*groupStream
	// midFail, when >= 0, is a drive that fails midway through the next
	// cycle's reads.
	midFail int
	// terminations counts degradation-of-service stream kills.
	terminations int
}

// ibGroupRead is one group's in-flight read state during a cycle.
type ibGroupRead struct {
	s  *groupStream
	g  *layout.Group
	bg *bufferedGroup
	// missing lists in-group offsets that could not be read directly.
	missing []int
	// tookOn[disk] counts normal data-read slots this group holds on each
	// drive (victim bookkeeping for the shift).
	reads []ibRead
	// unmaskable marks missing offsets that may not be recovered this
	// cycle (mid-cycle failure: no time to fetch parity).
	unmaskable map[int]bool
}

type ibRead struct {
	offset int
	disk   int
}

// NewImprovedBandwidth builds the engine over an intermixed-parity
// layout, holding reserve slots per drive back from admission (the
// paper's K_IB disks' worth of reserved bandwidth, expressed per drive).
func NewImprovedBandwidth(cfg Config, reserve int) (*ImprovedBandwidth, error) {
	if cfg.Layout != nil && cfg.Layout.Placement() != layout.IntermixedParity {
		return nil, fmt.Errorf("schemes: Improved-bandwidth needs intermixed parity, got %v", cfg.Layout.Placement())
	}
	core, err := newEngineCore(cfg, cfg.Layout.GroupWidth())
	if err != nil {
		return nil, err
	}
	if reserve < 0 || reserve >= core.slotsPerDisk {
		return nil, fmt.Errorf("schemes: reserve %d must be in [0,%d)", reserve, core.slotsPerDisk)
	}
	return &ImprovedBandwidth{engineCore: core, reserve: reserve, midFail: -1}, nil
}

// Name implements Simulator.
func (e *ImprovedBandwidth) Name() string { return "Improved-bandwidth" }

// CycleTime implements Simulator: Tcyc = (C-1)·B/b0.
func (e *ImprovedBandwidth) CycleTime() time.Duration {
	return e.cfg.Farm.Params().CycleTime(e.cfg.Layout.GroupWidth(), e.cfg.Rate)
}

// Active implements Simulator.
func (e *ImprovedBandwidth) Active() int { return activeCount(e.streams) }

// StreamProgress reports the next track owed to the stream and its
// object's total tracks; ok is false for unknown streams.
func (e *ImprovedBandwidth) StreamProgress(id int) (next, total int, ok bool) {
	return streamProgress(e.streams, id)
}

// Terminations counts streams killed by degradation of service.
func (e *ImprovedBandwidth) Terminations() int { return e.terminations }

// AddStream implements Simulator. Admission caps each cluster at the
// per-drive budget minus the reserve, leaving the headroom the shift
// needs under failure.
func (e *ImprovedBandwidth) AddStream(obj *layout.Object) (int, error) {
	return e.AddStreamAt(obj, 0)
}

// AddStreamAt admits a stream beginning at the given parity group — the
// session-resume seam. The reserve-capped per-cluster check moves to the
// start group's cluster; everything else matches an aged stream.
func (e *ImprovedBandwidth) AddStreamAt(obj *layout.Object, startGroup int) (int, error) {
	if err := checkStartGroup(obj, startGroup); err != nil {
		return 0, err
	}
	start := obj.Groups[startGroup].Cluster
	cap := e.slotsPerDisk - e.reserve
	if e.groupClusterLoad(e.streams)[start] >= cap {
		return 0, fmt.Errorf("schemes: cluster %d is at its %d-stream capacity (reserve %d)", start, cap, e.reserve)
	}
	id := e.allocStreamID()
	e.streams = append(e.streams, &groupStream{
		Stream:    sched.Stream{ID: id, Obj: obj, NextDeliver: startGroup * e.cfg.Layout.GroupWidth()},
		nextGroup: startGroup,
	})
	return id, nil
}

// CancelStream stops serving a stream immediately and returns its
// buffers.
func (e *ImprovedBandwidth) CancelStream(id int) error {
	return e.cancelGroupStream(e.streams, id)
}

// FailDiskMidCycle schedules the drive to fail halfway through the next
// cycle's reads: tracks it had already read are fine, the rest hiccup
// once, and later cycles are masked.
func (e *ImprovedBandwidth) FailDiskMidCycle(id int) error {
	if _, err := e.cfg.Farm.Drive(id); err != nil {
		return err
	}
	e.midFail = id
	return nil
}

// readGroupBlocks runs one group's phase-1 data reads, recording into
// ctx (a per-cluster shard when the phase runs parallel).
//
// cache, when non-nil, merges same-title reads as stageGroup does for
// Streaming RAID: a group another stream of this cluster already read in
// full this cycle is shared when this stream has a free slot on every
// drive of it. The sharer takes those slots and counts those reads
// exactly as its own unmerged reads would have, so reports do not
// change; without a free slot everywhere it reads unmerged (and misses
// where the slots ran out, as before).
func (e *ImprovedBandwidth) readGroupBlocks(gr *ibGroupRead, ctx *sched.CycleContext, cache map[*layout.Group]*bufferedGroup) error {
	if bg := cache[gr.g]; bg != nil && slotsFree(ctx, gr.g) {
		for j, loc := range gr.g.Data {
			ctx.Slots.Take(loc.Disk)
			gr.reads = append(gr.reads, ibRead{offset: j, disk: loc.Disk})
		}
		ctx.Rep.DataReads += len(gr.g.Data)
		bg.shares++
		gr.bg = bg
		return nil
	}
	gr.bg = newBufferedGroup(gr.g)
	for j, loc := range gr.g.Data {
		if !ctx.Slots.Take(loc.Disk) {
			gr.missing = append(gr.missing, j)
			continue
		}
		drv, err := e.cfg.Farm.Drive(loc.Disk)
		if err != nil {
			return err
		}
		blk, err := readTrackArena(drv, loc.Track, e.arena)
		if err != nil {
			gr.missing = append(gr.missing, j)
			continue
		}
		ctx.Rep.DataReads++
		gr.bg.data[j] = blk
		gr.reads = append(gr.reads, ibRead{offset: j, disk: loc.Disk})
	}
	if cache != nil && len(gr.missing) == 0 && cache[gr.g] == nil {
		cache[gr.g] = gr.bg
	}
	return nil
}

// slotsFree reports whether every data drive of g has a free slot left.
func slotsFree(ctx *sched.CycleContext, g *layout.Group) bool {
	for _, loc := range g.Data {
		if ctx.Slots.Free(loc.Disk) < 1 {
			return false
		}
	}
	return true
}

// Step implements Simulator.
func (e *ImprovedBandwidth) Step() (*sched.CycleReport, error) {
	ctx, err := e.beginCycle()
	if err != nil {
		return nil, err
	}

	// Collect this cycle's group reads.
	var groups []*ibGroupRead
	for _, s := range e.streams {
		if s.Done || s.Terminated || s.nextGroup >= len(s.Obj.Groups) {
			continue
		}
		g := &s.Obj.Groups[s.nextGroup]
		s.nextGroup++
		groups = append(groups, &ibGroupRead{s: s, g: g})
	}

	// Phase 1: normal data reads (no parity in normal mode). Each group's
	// reads stay on its own cluster, so the phase fans out per cluster —
	// except under a scheduled mid-cycle failure, whose semantics (the
	// victim drive serves exactly half of its scheduled reads, in
	// schedule order) depend on a serial read order; that path also never
	// merges. Lockstep streams of one title share a read through the
	// per-cluster stage cache; resolve copies a shared group before the
	// shift mutates it.
	if e.midFail >= 0 {
		if err := e.stepMidFailReads(groups, ctx); err != nil {
			return nil, err
		}
	} else {
		merge := !e.cfg.DisableMergedReads
		if merge {
			e.ensureStageCaches()
		}
		byCluster := make([][]*ibGroupRead, e.cfg.Layout.Clusters())
		for _, gr := range groups {
			byCluster[gr.g.Cluster] = append(byCluster[gr.g.Cluster], gr)
		}
		if err := e.runClusters(ctx, func(shard *sched.CycleContext, cl int) error {
			var cache map[*layout.Group]*bufferedGroup
			if merge && len(byCluster[cl]) > 1 {
				cache = e.stageCacheFor(cl)
			}
			for _, gr := range byCluster[cl] {
				if err := e.readGroupBlocks(gr, shard, cache); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Phase 2: shift to the right for groups missing blocks. The chain
	// crosses clusters (parity lives one cluster to the right, victims
	// cascade further), so it stays serial in group order.
	for _, gr := range groups {
		e.resolve(gr, groups, ctx, map[int]bool{})
	}

	// Buffer accounting for staged groups (terminated streams drop their
	// share without ever acquiring; the last holder's buffers go back to
	// the arena).
	for _, gr := range groups {
		if gr.s.Terminated {
			e.unshareGroup(gr.bg)
			continue
		}
		gr.bg.pooled = len(gr.g.Data)
		if err := e.pool.Acquire(gr.bg.pooled); err != nil {
			return nil, err
		}
		gr.s.staged = gr.bg
	}

	// Delivery of last cycle's groups.
	if err := e.deliverDouble(ctx, e.streams, "unmasked failure"); err != nil {
		return nil, err
	}

	return e.endCycle(ctx), nil
}

// stepMidFailReads is the serial phase-1 variant under a scheduled
// mid-cycle failure: the victim drive fails after serving half of its
// scheduled reads.
func (e *ImprovedBandwidth) stepMidFailReads(groups []*ibGroupRead, ctx *sched.CycleContext) error {
	midDisk := e.midFail
	scheduled := 0
	for _, gr := range groups {
		for _, loc := range gr.g.Data {
			if loc.Disk == midDisk {
				scheduled++
			}
		}
	}
	midAllowance := scheduled / 2
	for _, gr := range groups {
		gr.bg = newBufferedGroup(gr.g)
		for j, loc := range gr.g.Data {
			if !ctx.Slots.Take(loc.Disk) {
				gr.missing = append(gr.missing, j)
				continue
			}
			if loc.Disk == midDisk && e.midFail >= 0 {
				if midAllowance == 0 {
					drv, err := e.cfg.Farm.Drive(midDisk)
					if err != nil {
						return err
					}
					if err := drv.Fail(); err != nil {
						return err
					}
					e.midFail = -1
				} else {
					midAllowance--
				}
			}
			drv, err := e.cfg.Farm.Drive(loc.Disk)
			if err != nil {
				return err
			}
			blk, err := readTrackArena(drv, loc.Track, e.arena)
			if err != nil {
				gr.missing = append(gr.missing, j)
				if loc.Disk == midDisk {
					// Lost to the mid-cycle failure: no time to shift.
					if gr.unmaskable == nil {
						gr.unmaskable = map[int]bool{}
					}
					gr.unmaskable[j] = true
				}
				continue
			}
			ctx.Rep.DataReads++
			gr.bg.data[j] = blk
			gr.reads = append(gr.reads, ibRead{offset: j, disk: loc.Disk})
		}
	}
	if e.midFail >= 0 {
		// The drive had no scheduled reads this cycle; fail it now.
		drv, err := e.cfg.Farm.Drive(e.midFail)
		if err != nil {
			return err
		}
		if err := drv.Fail(); err != nil {
			return err
		}
		e.midFail = -1
	}
	return nil
}

// resolve recovers a group's missing blocks via the parity shift. visited
// guards against wrapping all the way around the clusters.
func (e *ImprovedBandwidth) resolve(gr *ibGroupRead, groups []*ibGroupRead, ctx *sched.CycleContext, visited map[int]bool) {
	if len(gr.missing) == 0 {
		return
	}
	// Count the recoverable missing blocks.
	var recoverable []int
	for _, j := range gr.missing {
		if !gr.unmaskable[j] {
			recoverable = append(recoverable, j)
		}
	}
	gr.missing = nil
	if len(recoverable) == 0 {
		return // only mid-cycle losses: one-time hiccups
	}
	if len(recoverable) > 1 {
		// Two blocks gone from one group: catastrophic, nothing to do.
		return
	}
	j := recoverable[0]
	pCluster := e.cfg.Layout.ParityHomeCluster(gr.g.Cluster)
	if visited[pCluster] {
		// Wrapped around: no capacity anywhere. Degradation of service.
		e.terminate(gr.s, ctx.Rep)
		return
	}
	visited[pCluster] = true

	par := e.readParity(gr, groups, ctx, visited)
	if par == nil {
		return // terminate/hiccup already handled downstream
	}
	// Reconstruct in place: fold the surviving blocks into the parity
	// buffer, whose ownership then moves to the missing data slot.
	for k, blk := range gr.bg.data {
		if k == j || blk == nil {
			continue
		}
		if err := parity.XORInto(par, blk); err != nil {
			e.arena.Put(par)
			return
		}
	}
	gr.bg.data[j] = par
	gr.bg.reconstructed[j] = true
	ctx.Rep.Reconstructions++
}

// readParity secures a slot on the group's parity drive — dropping a
// local read in its favor if necessary — and reads the parity block. It
// returns nil after handling the failure modes (failed parity drive:
// catastrophic hiccup; no victim: degradation).
func (e *ImprovedBandwidth) readParity(gr *ibGroupRead, groups []*ibGroupRead, ctx *sched.CycleContext, visited map[int]bool) []byte {
	pDisk := gr.g.Parity.Disk
	drv, err := e.cfg.Farm.Drive(pDisk)
	if err != nil {
		return nil
	}
	if drv.State() != disk.Operational {
		// Adjacent-cluster double failure: the paper's data-loss case.
		return nil
	}
	if !ctx.Slots.Take(pDisk) {
		// Drop a victim's local read on this drive in favor of parity.
		victim := e.pickVictim(groups, pDisk, gr)
		if victim == nil {
			e.terminate(gr.s, ctx.Rep)
			return nil
		}
		// The victim loses the block it read from pDisk; the freed slot
		// carries our parity read. The victim's group then shifts right
		// itself — on a private copy if it shares its group with other
		// streams, whose reads stand.
		e.ownGroup(victim)
		for vi, vr := range victim.reads {
			if vr.disk == pDisk {
				e.arena.Put(victim.bg.data[vr.offset])
				victim.bg.data[vr.offset] = nil
				victim.missing = append(victim.missing, vr.offset)
				victim.reads = append(victim.reads[:vi], victim.reads[vi+1:]...)
				break
			}
		}
		defer e.resolve(victim, groups, ctx, visited)
	}
	blk, err := readTrackArena(drv, gr.g.Parity.Track, e.arena)
	if err != nil {
		return nil
	}
	ctx.Rep.ParityReads++
	// The parity block occupies a buffer only within this cycle. The
	// caller owns the returned arena buffer (resolve transfers it into
	// the reconstructed slot).
	if err := e.pool.Acquire(1); err != nil {
		e.arena.Put(blk)
		return nil
	}
	if err := e.pool.Release(1); err != nil {
		e.arena.Put(blk)
		return nil
	}
	return blk
}

// ownGroup gives gr a private copy of its buffered group when the group
// is shared, so the shift can drop and reconstruct tracks in it without
// touching the other sharers' data.
func (e *ImprovedBandwidth) ownGroup(gr *ibGroupRead) {
	src := gr.bg
	if src.shares <= 1 {
		return
	}
	src.shares--
	gr.bg = newBufferedGroup(gr.g)
	for k, d := range src.data {
		if d != nil {
			gr.bg.data[k] = e.arena.Get()
			copy(gr.bg.data[k], d)
		}
	}
}

// pickVictim finds a group (other than the requester) holding a normal
// data-read slot on the drive.
func (e *ImprovedBandwidth) pickVictim(groups []*ibGroupRead, d int, requester *ibGroupRead) *ibGroupRead {
	for _, gr := range groups {
		if gr == requester || gr.s.Terminated {
			continue
		}
		for _, r := range gr.reads {
			if r.disk == d {
				return gr
			}
		}
	}
	return nil
}

// terminate kills a stream: the paper's degradation of service. Buffers
// the stream still holds from the previous cycle are returned.
func (e *ImprovedBandwidth) terminate(s *groupStream, rep *sched.CycleReport) {
	if s.Terminated {
		return
	}
	s.Terminated = true
	e.terminations++
	rep.Terminated = append(rep.Terminated, s.ID)
	// Share-aware: lockstep streams may still deliver these groups. The
	// pool errs only on releasing more than it holds, which per-sharer
	// accounting rules out, and terminate has no error path to report on.
	_ = e.releaseGroups(s.delivering, s.staged)
	s.delivering, s.staged = nil, nil
}
