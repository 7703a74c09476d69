package schemes

import (
	"errors"
	"fmt"

	"ftmm/internal/buffer"
	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// ErrCapacity marks an admission-bound refusal — a rate change or
// admission that would push some cluster past its per-disk slot budget.
// Callers distinguish it from unknown-stream or validation errors to
// decide whether a retry later can succeed.
var ErrCapacity = errors.New("schemes: capacity")

// engineCore is the chassis shared by the four scheme engines: the
// validated configuration, the per-disk slot budget, the cycle counter,
// stream-ID allocation, the buffer pool, the metrics recorder, and the
// bounded per-cluster worker pool. Engines embed it and keep only their
// scheme-specific scheduling logic.
type engineCore struct {
	cfg          Config
	slotsPerDisk int
	cycle        int
	nextID       int
	pool         *buffer.Pool
	// arena recycles track-sized byte buffers across cycles; pool above
	// remains the paper's track-count accounting.
	arena   *buffer.Arena
	rec     *sched.Recorder
	workers int
	// ctx and shards are the persistent cycle context and per-cluster
	// shards, reset each Step instead of reallocated. The context
	// double-buffers its report, so a report returned by Step is valid
	// until the second-next Step (then its struct is reused).
	ctx    *sched.CycleContext
	shards []*sched.CycleContext
	// delivered holds the engine's own reference on every track buffer
	// shared into the last Step's report; deliveredPrev holds the
	// references for the Step before that. beginCycle releases the older
	// generation and rotates, so delivered bytes stay intact for two
	// Steps — matching the double-buffered report — which lets a
	// pipelined consumer stage cycle N's tracks while the engine reads
	// cycle N+1. Consumers that need a track longer Retain its
	// Delivery.Buf.
	delivered     []*buffer.Ref
	deliveredPrev []*buffer.Ref
	// stageCaches[cl] maps group → staged bufferedGroup for same-title
	// read merging within one cycle's read phase. One map per cluster:
	// a group lives on exactly one cluster, and the read phase shards by
	// cluster, so each map is touched by a single goroutine.
	stageCaches []map[*layout.Group]*bufferedGroup
}

// newEngineCore validates the config and builds the chassis for an
// engine whose cycle reads k' tracks per stream.
func newEngineCore(cfg Config, kPrime int) (engineCore, error) {
	if err := cfg.validate(); err != nil {
		return engineCore{}, err
	}
	slots, err := cfg.slotsFor(kPrime)
	if err != nil {
		return engineCore{}, err
	}
	return engineCore{
		cfg:          cfg,
		slotsPerDisk: slots,
		pool:         newPool(),
		arena:        buffer.NewArena(int(cfg.Farm.Params().TrackSize)),
		rec:          sched.NewRecorder(cfg.Metrics),
		workers:      cfg.Workers,
	}, nil
}

// Cycle implements Simulator.
func (c *engineCore) Cycle() int { return c.cycle }

// SlotsPerDisk returns the per-disk per-cycle track budget in use.
func (c *engineCore) SlotsPerDisk() int { return c.slotsPerDisk }

// BufferPeak implements Simulator.
func (c *engineCore) BufferPeak() int { return c.pool.Peak() }

// BufferInUse returns the current buffer occupancy in tracks.
func (c *engineCore) BufferInUse() int { return c.pool.InUse() }

// Arena implements Simulator, exposing the byte-buffer recycler for
// refcount leak accounting.
func (c *engineCore) Arena() *buffer.Arena { return c.arena }

// shareDelivered wraps a delivered track buffer in a refcounted handle.
// The engine keeps its own reference until the second-next Step's
// beginCycle (the delivered/deliveredPrev rotation).
func (c *engineCore) shareDelivered(buf []byte) *buffer.Ref {
	ref := c.arena.Share(buf)
	c.delivered = append(c.delivered, ref)
	return ref
}

// FailDisk implements Simulator for engines with no extra failure
// bookkeeping (the Non-clustered engine overrides this).
func (c *engineCore) FailDisk(id int) error {
	drv, err := c.cfg.Farm.Drive(id)
	if err != nil {
		return err
	}
	return drv.Fail()
}

// allocStreamID hands out the next stream ID.
func (c *engineCore) allocStreamID() int {
	id := c.nextID
	c.nextID++
	return id
}

// beginCycle opens the cycle's context: cleared slot budgets, the shared
// pool, an emptied report, and the recorder. The context is persistent —
// reset, not reallocated — and double-buffered, so the report Step hands
// out is valid until the second-next Step.
func (c *engineCore) beginCycle() (*sched.CycleContext, error) {
	// Drop the engine's references on the delivered tracks from two
	// cycles ago; buffers with no other holders return to the arena
	// here, before this cycle's reads can reuse them. Last cycle's
	// tracks rotate into the about-to-be-released slot, keeping them —
	// and the report that lists them — intact across this whole Step.
	for i, ref := range c.deliveredPrev {
		ref.Release()
		c.deliveredPrev[i] = nil
	}
	c.delivered, c.deliveredPrev = c.deliveredPrev[:0], c.delivered
	if c.ctx == nil {
		slots, err := sched.NewSlots(c.cfg.Farm.Size(), c.slotsPerDisk)
		if err != nil {
			return nil, err
		}
		c.ctx = sched.NewCycleContext(c.cycle, slots, c.pool, c.rec)
		return c.ctx, nil
	}
	c.ctx.Reset(c.cycle)
	return c.ctx, nil
}

// endCycle closes the cycle: stamps buffer occupancy, feeds the metrics
// recorder, and advances the clock.
func (c *engineCore) endCycle(ctx *sched.CycleContext) *sched.CycleReport {
	rep := ctx.Finish()
	c.cycle++
	return rep
}

// runClusters fans one cycle phase out across clusters on the bounded
// worker pool. Each cluster's work records into a private shard of ctx;
// shards merge back in cluster-index order, so the assembled report is
// bit-identical at any worker count. Correct only for phases whose
// per-cluster work touches disjoint disks (true for every scheme here:
// a stream's reads stay within its current cluster).
func (c *engineCore) runClusters(ctx *sched.CycleContext, fn func(shard *sched.CycleContext, cl int) error) error {
	n := c.cfg.Layout.Clusters()
	if c.shards == nil {
		c.shards = make([]*sched.CycleContext, n)
	}
	if err := sched.RunClusters(n, c.workers, func(cl int) error {
		shard := c.shards[cl]
		if shard == nil {
			shard = ctx.Shard()
			c.shards[cl] = shard
		} else {
			// Rewind only the shard's private report; slot budgets are
			// shared with ctx and were reset in beginCycle.
			shard.Cycle = ctx.Cycle
			shard.Rep.Reset(ctx.Cycle)
		}
		return fn(shard, cl)
	}); err != nil {
		return err
	}
	ctx.MergeShards(c.shards...)
	return nil
}

// ensureStageCaches sizes the per-cluster stage-cache table. Called
// before the parallel read phase so workers only ever write their own
// cluster's slot.
func (c *engineCore) ensureStageCaches() {
	if c.stageCaches == nil {
		c.stageCaches = make([]map[*layout.Group]*bufferedGroup, c.cfg.Layout.Clusters())
	}
}

// stageCacheFor returns cluster cl's same-title stage cache, emptied for
// this cycle. Callers must have run ensureStageCaches first and must be
// the (single) goroutine working cluster cl.
func (c *engineCore) stageCacheFor(cl int) map[*layout.Group]*bufferedGroup {
	return cycleCache(&c.stageCaches[cl])
}

// cycleCache returns the per-cycle merge cache *m emptied, making it on
// first use; the map persists across cycles so steady state allocates
// nothing.
func cycleCache[K comparable, V any](m *map[K]V) map[K]V {
	if *m == nil {
		*m = make(map[K]V, 4)
	}
	clear(*m)
	return *m
}

// releaseGroups drops one sharer's hold on the given buffered groups
// (nils are fine): the sharer's pooled tracks return to the pool, and
// when the last sharer lets go the byte buffers recycle to the arena.
func (c *engineCore) releaseGroups(bgs ...*bufferedGroup) error {
	for _, bg := range bgs {
		if bg == nil {
			continue
		}
		if bg.pooled > 0 {
			if err := c.pool.Release(bg.pooled); err != nil {
				return err
			}
		}
		c.unshareGroup(bg)
	}
	return nil
}

// unshareGroup drops one sharer from a buffered group (nil is fine)
// without touching the pool — callers settle their own pool hold first;
// the last sharer recycles the group's buffers.
func (c *engineCore) unshareGroup(bg *bufferedGroup) {
	if bg == nil {
		return
	}
	if bg.shares > 1 {
		bg.shares--
		return
	}
	bg.shares = 0
	bg.pooled = 0
	c.recycleGroup(bg)
}

// recycleGroup hands a buffered group's remaining track buffers back to
// the arena, drops the group's own holds on refs minted for sharers, and
// clears the slots. Callers must ensure no live CycleReport older than
// the current Step references the buffers (delivered buffers recycled
// here stay intact until the next Step's reads reuse them).
func (c *engineCore) recycleGroup(bg *bufferedGroup) {
	if bg == nil {
		return
	}
	for i, d := range bg.data {
		if d != nil {
			c.arena.Put(d)
			bg.data[i] = nil
		}
	}
	for i, ref := range bg.refs {
		if ref != nil {
			ref.Release()
			bg.refs[i] = nil
		}
	}
}

// takeTrack hands out track off of a staged group for delivery: the
// returned ref is already on the engine's release list, and data is nil
// when the track was lost. The first sharer to take a track mints its
// ref; while the group is shared the ref is also parked in bg.refs (with
// the group's own hold, dropped by recycleGroup) so later sharers Retain
// the same ref — a second Share of one buffer would double-free it.
func (c *engineCore) takeTrack(bg *bufferedGroup, off int) (data []byte, ref *buffer.Ref) {
	if bg.refs != nil && bg.refs[off] != nil {
		ref = bg.refs[off]
		ref.Retain()
		c.delivered = append(c.delivered, ref)
		return ref.Bytes(), ref
	}
	data = bg.data[off]
	if data == nil {
		return nil, nil
	}
	ref = c.shareDelivered(data)
	// Ownership moved to the Ref; clear the slot so recycleGroup does not
	// Put the buffer behind the report's back.
	bg.data[off] = nil
	if bg.shares > 1 {
		if bg.refs == nil {
			bg.refs = make([]*buffer.Ref, len(bg.data))
		}
		ref.Retain()
		bg.refs[off] = ref
	}
	return data, ref
}

// newBufferedGroup returns an empty single-share staging struct for g.
func newBufferedGroup(g *layout.Group) *bufferedGroup {
	return &bufferedGroup{
		group:         g,
		data:          make([][]byte, len(g.Data)),
		reconstructed: make([]bool, len(g.Data)),
		shares:        1,
	}
}

// engineStream lets generic helpers reach the embedded sched.Stream of
// any engine's stream type.
type engineStream interface {
	stream() *sched.Stream
}

// streamProgress reports a stream's delivery progress: the next track
// owed to the client and the object's total tracks. ok is false for
// streams the engine never knew or has forgotten; finished and
// terminated streams still report (next pinned at total for finished).
func streamProgress[S engineStream](streams []S, id int) (next, total int, ok bool) {
	for _, s := range streams {
		if st := s.stream(); st.ID == id {
			return st.NextDeliver, st.Obj.Tracks, true
		}
	}
	return 0, 0, false
}

// checkStartGroup validates an AddStreamAt origin: it must index an
// existing parity group of the object.
func checkStartGroup(obj *layout.Object, startGroup int) error {
	if startGroup < 0 || startGroup >= len(obj.Groups) {
		return fmt.Errorf("schemes: start group %d outside [0,%d) of %s", startGroup, len(obj.Groups), obj.ID)
	}
	return nil
}

// activeCount counts streams still being served.
func activeCount[S engineStream](streams []S) int {
	n := 0
	for _, s := range streams {
		if st := s.stream(); !st.Done && !st.Terminated {
			n++
		}
	}
	return n
}

// findActive locates an active stream by ID.
func findActive[S engineStream](streams []S, id int) (S, error) {
	var zero S
	for _, s := range streams {
		st := s.stream()
		if st.ID != id {
			continue
		}
		if st.Done || st.Terminated {
			return zero, fmt.Errorf("schemes: stream %d is not active", id)
		}
		return s, nil
	}
	return zero, fmt.Errorf("schemes: no stream %d", id)
}

// groupStream is the double-buffered stream state shared by the
// whole-group engines (Streaming RAID and Improved-bandwidth): the group
// read this cycle is staged; the group read last cycle is delivering.
type groupStream struct {
	sched.Stream
	// nextGroup is the next parity-group index to read.
	nextGroup  int
	staged     *bufferedGroup
	delivering *bufferedGroup
	// rate is the playback multiplier: 0 and 1 mean normal playback (one
	// group per cycle), r > 1 means fast-forward — r groups staged and
	// delivered per cycle. The extra groups beyond the first live in
	// stagedExtra/deliveringExtra, in group order, so the rate-1 fields
	// above keep their exact pre-VCR behaviour.
	rate            int
	stagedExtra     []*bufferedGroup
	deliveringExtra []*bufferedGroup
}

func (s *groupStream) stream() *sched.Stream { return &s.Stream }

// ffRate normalizes a stream's playback multiplier (0 means 1).
func ffRate(s *groupStream) int {
	if s.rate > 1 {
		return s.rate
	}
	return 1
}

// groupClusterLoad counts the normal-rate streams whose next group read
// lands on each cluster. Fast-forward streams are excluded: their draw
// is not tied to one cluster (a rate-r stream touches up to r clusters
// per cycle) and is accounted separately by ffClusterDraw.
func (c *engineCore) groupClusterLoad(streams []*groupStream) []int {
	return c.groupClusterLoadOmit(streams, nil)
}

// ffClusterDraw bounds the extra per-cluster slot draw of every active
// fast-forward stream (excluding skip). Consecutive parity groups of an
// object land on consecutive clusters mod N (layout places group g on
// cluster (start+g) mod N), so the r groups a rate-r stream reads in
// one cycle spread over r consecutive clusters and hit any single
// cluster at most ceil(r/N) times. Summing that ceiling over all FF
// streams gives a per-cluster draw bound that holds on every cluster in
// every future cycle, which is what lets admission treat FF draw as a
// position-independent surcharge on top of the rotating rate-1 loads.
func (c *engineCore) ffClusterDraw(streams []*groupStream, skip *groupStream) int {
	n := c.cfg.Layout.Clusters()
	draw := 0
	for _, s := range streams {
		if s == skip || s.Done || s.Terminated || s.nextGroup >= len(s.Obj.Groups) {
			continue
		}
		if r := ffRate(s); r > 1 {
			draw += (r + n - 1) / n
		}
	}
	return draw
}

// setGroupStreamRate changes a stream's playback multiplier for the
// whole-group engines. Dropping the rate (or holding it) always
// succeeds — it only releases draw. Raising it re-runs the admission
// argument: the worst-case cluster must absorb the stream's new
// ceil(rate/N) draw on top of every other stream's, or the change is
// refused wrapping ErrCapacity (the caller can retry after capacity
// frees up). The stream's current seat — one rate-1 slot or its old FF
// draw — is excluded from the check, since the new draw replaces it.
func (c *engineCore) setGroupStreamRate(streams []*groupStream, id, rate int) error {
	if rate < 1 {
		return fmt.Errorf("schemes: rate %d must be at least 1", rate)
	}
	s, err := findActive(streams, id)
	if err != nil {
		return err
	}
	if rate <= ffRate(s) {
		s.rate = rate
		return nil
	}
	n := c.cfg.Layout.Clusters()
	maxLoad := 0
	for _, l := range c.groupClusterLoadOmit(streams, s) {
		if l > maxLoad {
			maxLoad = l
		}
	}
	need := (rate + n - 1) / n
	if maxLoad+c.ffClusterDraw(streams, s)+need > c.slotsPerDisk {
		return fmt.Errorf("%w: rate %d needs %d slots over the worst cluster's %d-of-%d budget",
			ErrCapacity, rate, need, maxLoad+c.ffClusterDraw(streams, s), c.slotsPerDisk)
	}
	s.rate = rate
	return nil
}

// groupClusterLoadOmit is groupClusterLoad with one stream left out —
// the stream whose seat is being re-priced by a rate change.
func (c *engineCore) groupClusterLoadOmit(streams []*groupStream, skip *groupStream) []int {
	load := make([]int, c.cfg.Layout.Clusters())
	for _, s := range streams {
		if s == skip || s.Done || s.Terminated || s.nextGroup >= len(s.Obj.Groups) || ffRate(s) > 1 {
			continue
		}
		load[s.Obj.Groups[s.nextGroup].Cluster]++
	}
	return load
}

// weightedActive sums max(rate, 1) over active streams: the per-cycle
// k′ draw the farm is actually committed to, which is what the paper's
// N_p bound constrains once fast-forward multiplies a viewer's draw.
func weightedActive(streams []*groupStream) int {
	n := 0
	for _, s := range streams {
		if s.Done || s.Terminated {
			continue
		}
		n += ffRate(s)
	}
	return n
}

// cancelGroupStream implements CancelStream for double-buffered engines:
// the stream stops immediately (a client hanging up, not a degradation
// event) and its buffers are returned.
func (c *engineCore) cancelGroupStream(streams []*groupStream, id int) error {
	s, err := findActive(streams, id)
	if err != nil {
		return err
	}
	s.Done = true
	if err := c.releaseGroups(s.staged, s.delivering); err != nil {
		return err
	}
	s.staged, s.delivering = nil, nil
	if err := c.releaseGroups(s.stagedExtra...); err != nil {
		return err
	}
	if err := c.releaseGroups(s.deliveringExtra...); err != nil {
		return err
	}
	s.stagedExtra, s.deliveringExtra = s.stagedExtra[:0], s.deliveringExtra[:0]
	return nil
}

// groupReadEntry is one group read of this cycle's plan: stream s reads
// group g into its primary staged slot (slot == -1) or stagedExtra[slot]
// (a fast-forward stream's extra group).
type groupReadEntry struct {
	s    *groupStream
	g    *layout.Group
	slot int
}

// groupReadPlan lays out this cycle's group reads by cluster,
// fast-forward aware: a rate-r stream contributes its next r groups
// (capped at the object's end), the first to its primary slot and the
// rest to stagedExtra in group order. nextGroup advances here, in the
// single-threaded planning pass, so the parallel read phase only writes
// each entry's private slot — two entries of one stream can land on the
// same cluster (rate > cluster count) and are then staged serially by
// that cluster's one worker, while entries on different clusters write
// disjoint slots. want filters which streams read this cycle.
func (c *engineCore) groupReadPlan(streams []*groupStream, want func(*groupStream) bool) [][]groupReadEntry {
	plan := make([][]groupReadEntry, c.cfg.Layout.Clusters())
	for _, s := range streams {
		if s.Done || s.Terminated || s.nextGroup >= len(s.Obj.Groups) {
			continue
		}
		if want != nil && !want(s) {
			continue
		}
		rate := ffRate(s)
		if remaining := len(s.Obj.Groups) - s.nextGroup; rate > remaining {
			rate = remaining
		}
		if need := rate - 1; cap(s.stagedExtra) < need {
			s.stagedExtra = make([]*bufferedGroup, need)
		} else {
			s.stagedExtra = s.stagedExtra[:need]
			for i := range s.stagedExtra {
				s.stagedExtra[i] = nil
			}
		}
		for j := 0; j < rate; j++ {
			g := &s.Obj.Groups[s.nextGroup]
			s.nextGroup++
			plan[g.Cluster] = append(plan[g.Cluster], groupReadEntry{s: s, g: g, slot: j - 1})
		}
	}
	return plan
}

// stageGroup schedules and reads one whole parity group for later
// delivery, tolerating failed drives: one slot is taken on every drive
// of the group's cluster (failed drives keep their slot — the arm is
// still scheduled — but yield nothing), a single missing track is
// rebuilt from parity, and the group's buffers are acquired. When the
// slot budget is exceeded (over-admission under a manual SlotsPerDisk
// override) the group stays empty and hiccups at delivery.
//
// cache, when non-nil, merges same-title reads: a group already staged
// this cycle on this cluster is shared instead of re-read. Sharing is
// physical only — every sharer still takes its slots first, Acquires the
// same pooled track count, and adds the recorded read/reconstruction
// counters to its shard report — so a merged run's CycleReports are
// bit-identical to an unmerged run's. Slot exhaustion is monotone within
// a cycle, so a sharer that would have failed admission unmerged fails
// here too, before the cache is consulted.
func (c *engineCore) stageGroup(ctx *sched.CycleContext, g *layout.Group, cache map[*layout.Group]*bufferedGroup) (*bufferedGroup, error) {
	ok := true
	for _, loc := range g.Data {
		if !ctx.Slots.Take(loc.Disk) {
			ok = false
		}
	}
	if !ctx.Slots.Take(g.Parity.Disk) {
		ok = false
	}
	if !ok {
		return newBufferedGroup(g), nil
	}
	if bg := cache[g]; bg != nil {
		bg.shares++
		ctx.Rep.DataReads += bg.dataReads
		ctx.Rep.ParityReads += bg.parityReads
		if bg.recovered {
			ctx.Rep.Reconstructions++
		}
		if err := c.pool.Acquire(bg.pooled); err != nil {
			return nil, err
		}
		return bg, nil
	}
	staged := &bufferedGroup{
		group:         g,
		reconstructed: make([]bool, len(g.Data)),
		shares:        1,
	}
	gr := readGroup(c.cfg.Farm, g, true, c.arena)
	staged.dataReads = gr.dataReads
	staged.parityReads = gr.parityReads
	ctx.Rep.DataReads += gr.dataReads
	ctx.Rep.ParityReads += gr.parityReads
	if rec, recErr := gr.recoverGroup(); recErr == nil && rec >= 0 {
		staged.reconstructed[rec] = true
		staged.recovered = true
		ctx.Rep.Reconstructions++
	}
	// The parity buffer's only post-read use is the recovery above (which
	// consumes it on success); recycle whatever is left.
	c.arena.Put(gr.par)
	gr.par = nil
	staged.data = gr.data
	staged.pooled = len(g.Data) + 1
	if err := c.pool.Acquire(staged.pooled); err != nil {
		return nil, err
	}
	if cache != nil {
		cache[g] = staged
	}
	return staged, nil
}

// deliverDouble runs the delivery phase for double-buffered engines:
// groups read in the previous cycle go out now, hiccuping tracks that
// could not be read or rebuilt (hiccupReason labels the loss). A
// fast-forward stream delivers its primary group and then its extras in
// group order, so the tracks on the wire stay consecutive.
func (c *engineCore) deliverDouble(ctx *sched.CycleContext, streams []*groupStream, hiccupReason string) error {
	for _, s := range streams {
		if s.Terminated || s.Done {
			continue
		}
		bg := s.delivering
		extras := s.deliveringExtra
		s.delivering, s.staged = s.staged, nil
		s.deliveringExtra, s.stagedExtra = s.stagedExtra, extras[:0]
		if bg != nil {
			if err := c.deliverGroup(ctx, s, bg, hiccupReason); err != nil {
				return err
			}
		}
		for i, ebg := range extras {
			extras[i] = nil
			if ebg == nil {
				continue
			}
			if err := c.deliverGroup(ctx, s, ebg, hiccupReason); err != nil {
				return err
			}
		}
		if bg == nil && len(extras) == 0 {
			continue
		}
		if s.Done {
			ctx.Rep.Finished = append(ctx.Rep.Finished, s.ID)
		}
	}
	return nil
}

// deliverGroup ships one buffered group of one stream: tracks out (or
// hiccups), the sharer's pool hold released, the stream advanced. The
// caller appends Finished once after all of the stream's groups.
func (c *engineCore) deliverGroup(ctx *sched.CycleContext, s *groupStream, bg *bufferedGroup, hiccupReason string) error {
	width := len(bg.group.Data)
	base := bg.group.Index * width
	for off := 0; off < bg.group.ValidTracks; off++ {
		data, ref := c.takeTrack(bg, off)
		if data == nil {
			ctx.Rep.Hiccups = append(ctx.Rep.Hiccups, sched.Hiccup{
				StreamID: s.ID, ObjectID: s.Obj.ID, Track: base + off,
				Reason: hiccupReason,
			})
			continue
		}
		ctx.Rep.Delivered = append(ctx.Rep.Delivered, sched.Delivery{
			StreamID: s.ID, ObjectID: s.Obj.ID, Track: base + off,
			Data: data, Buf: ref, Reconstructed: bg.reconstructed[off],
		})
	}
	// Delivered slots were handed to refs above; the last sharer recycles
	// only the leftovers (failed reads, padding past ValidTracks).
	if err := c.releaseGroups(bg); err != nil {
		return err
	}
	s.Advance(bg.group.ValidTracks)
	return nil
}
