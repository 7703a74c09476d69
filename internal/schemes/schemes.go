// Package schemes implements the paper's four fault-tolerance schemes as
// operational cycle-driven simulators over a real (simulated) disk farm:
//
//   - StreamingRAID (§2): whole parity group read per stream per cycle,
//     delivered the next cycle; single failures masked with zero hiccups.
//   - StaggeredGroup (§2): same layout, group read once per C-1 short
//     cycles and delivered one track per cycle; ~half the memory.
//   - NonClustered (§3): one track read per stream per cycle; a failure
//     puts the cluster through a C-cycle transition (losing some tracks,
//     per Figures 6-7) into a degraded group-at-a-time mode backed by a
//     shared buffer-server pool.
//   - ImprovedBandwidth (§4): parity intermixed on the next cluster; no
//     parity bandwidth spent in normal mode; failures masked by a chained
//     "shift to the right" into reserved capacity.
//
// A fifth scheme extends the paper: Declustered (dc.go) keeps SR's
// group-at-a-time cycle but maps parity groups onto block-design
// subsets of G-drive declustering groups, spreading rebuild load over
// every survivor instead of C-1 cluster mates.
//
// Every simulator moves real bytes: deliveries carry track content that
// tests compare against the originally written object data, so masking a
// failure means proving the reconstructed bytes are identical.
//
// # Report retention
//
// The *sched.CycleReport returned by Step — and every Delivery.Data
// slice inside it — is valid only until the engine's next Step: engines
// reuse the report's backing slices and recycle delivered track buffers
// through a buffer.Arena (DESIGN.md, "Zero-alloc data path"). A caller
// that holds a report across Steps must deep-copy it first with
// CycleReport.Clone; trace.Recorder.Observe copies delivered bytes for
// the same reason, and the network layer copies them into wire frames
// at the socket boundary. Reading a stale report is a use-after-free
// the race detector cannot see — the bytes stay valid, just wrong.
package schemes

import (
	"errors"
	"fmt"
	"time"

	"ftmm/internal/buffer"
	"ftmm/internal/disk"
	"ftmm/internal/layout"
	"ftmm/internal/metrics"
	"ftmm/internal/parity"
	"ftmm/internal/sched"
	"ftmm/internal/units"
)

// Simulator is the behaviour common to all four scheme engines.
type Simulator interface {
	// Name returns the paper's name for the scheme.
	Name() string
	// Cycle returns the index of the next cycle Step will run.
	Cycle() int
	// CycleTime returns the wall-clock length of one cycle.
	CycleTime() time.Duration
	// AddStream admits a stream for a placed object, returning its ID.
	// Admission fails when the scheme's bandwidth budget is exhausted.
	AddStream(obj *layout.Object) (int, error)
	// Step simulates one cycle: reads, failure handling, deliveries.
	Step() (*sched.CycleReport, error)
	// FailDisk fails a drive at the upcoming cycle boundary.
	FailDisk(id int) error
	// Active returns the number of streams still being served.
	Active() int
	// BufferPeak returns the high-water buffer occupancy in tracks.
	BufferPeak() int
	// BufferInUse returns the current buffer occupancy in tracks; with
	// no streams active and deliveries drained it must return to zero
	// (the chaos harness's leak checker asserts exactly that).
	BufferInUse() int
	// Arena exposes the engine's track-buffer recycler, mainly so leak
	// tests can assert every shared buffer was Released.
	Arena() *buffer.Arena
}

// Config carries what every scheme engine needs.
type Config struct {
	Farm   *disk.Farm
	Layout *layout.Layout
	// Rate is the object bandwidth b0 (uniform across streams, as in the
	// paper's analysis).
	Rate units.Rate
	// SlotsPerDisk overrides the per-disk per-cycle track budget; 0
	// derives it from the disk model and the scheme's cycle time.
	SlotsPerDisk int
	// Workers bounds the per-cluster parallelism inside a cycle: 0 uses
	// GOMAXPROCS, 1 runs fully serial. Any value produces bit-identical
	// cycle reports for the same inputs.
	Workers int
	// DisableMergedReads turns off same-title read merging in every
	// engine: lockstep streams reading the same parity group (SR, SG, IB,
	// DC) or the same track (NC, normal mode) in the same cycle share one
	// physical read. Merging never changes reports — every sharer still
	// pays slots, pool tracks, and read counters — so this knob exists
	// for benchmarking the unmerged path and as the differential oracle
	// for the merged one, not for correctness.
	DisableMergedReads bool
	// Metrics, when non-nil, receives the engine's counters, gauges and
	// histograms (see sched.NewRecorder for the instrument set).
	Metrics *metrics.Registry
}

func (c Config) validate() error {
	if c.Farm == nil || c.Layout == nil {
		return errors.New("schemes: nil farm or layout")
	}
	if c.Rate <= 0 {
		return errors.New("schemes: object rate must be positive")
	}
	if c.SlotsPerDisk < 0 {
		return errors.New("schemes: negative slot budget")
	}
	if c.Farm.Size() != c.Layout.Clusters()*c.Layout.ClusterSize() ||
		c.Farm.ClusterSize() != c.Layout.ClusterSize() {
		return errors.New("schemes: farm and layout topologies differ")
	}
	return nil
}

// slotsFor resolves the per-disk budget for a cycle of the given k'.
func (c Config) slotsFor(kPrime int) (int, error) {
	if c.SlotsPerDisk > 0 {
		return c.SlotsPerDisk, nil
	}
	window := c.Farm.Params().CycleTime(kPrime, c.Rate)
	budget := c.Farm.Params().TrackBudget(window)
	if budget < 1 {
		return 0, fmt.Errorf("schemes: cycle of k'=%d tracks leaves no read budget", kPrime)
	}
	return budget, nil
}

// groupRead is the outcome of reading one parity group with failures
// tolerated: per-track data (nil where unreadable), the parity block (nil
// if unreadable), and how many track reads succeeded.
type groupRead struct {
	data        [][]byte
	par         []byte
	dataReads   int
	parityReads int
}

// readTrackArena reads one track into a buffer from the arena, returning
// the buffer to the arena on failure. A nil arena falls back to plain
// allocation (used by tests poking at helpers directly).
func readTrackArena(drv *disk.Drive, track int, arena *buffer.Arena) ([]byte, error) {
	if arena == nil {
		return drv.ReadTrack(track)
	}
	buf := arena.Get()
	if err := drv.ReadTrackInto(buf, track); err != nil {
		arena.Put(buf)
		return nil, err
	}
	return buf, nil
}

// readGroup reads every block of a parity group from the farm into arena
// buffers, tolerating failed drives.
func readGroup(f *disk.Farm, g *layout.Group, withParity bool, arena *buffer.Arena) groupRead {
	out := groupRead{data: make([][]byte, len(g.Data))}
	for i, loc := range g.Data {
		drv, err := f.Drive(loc.Disk)
		if err != nil {
			continue
		}
		blk, err := readTrackArena(drv, loc.Track, arena)
		if err == nil {
			out.data[i] = blk
			out.dataReads++
		}
	}
	if withParity {
		if drv, err := f.Drive(g.Parity.Disk); err == nil {
			if blk, err := readTrackArena(drv, g.Parity.Track, arena); err == nil {
				out.par = blk
				out.parityReads++
			}
		}
	}
	return out
}

// recoverGroup fills in a single missing data block from the others plus
// parity, in place and without allocating: the surviving data blocks are
// folded into the parity buffer, whose ownership then moves to the
// missing data slot (par becomes nil). It returns the index recovered,
// or -1 if nothing was missing, and an error when recovery is impossible
// (two or more blocks missing, or parity unavailable).
func (gr *groupRead) recoverGroup() (int, error) {
	missing := -1
	for i, d := range gr.data {
		if d == nil {
			if missing >= 0 {
				return 0, errors.New("schemes: two data blocks missing in one parity group (catastrophic)")
			}
			missing = i
		}
	}
	if missing < 0 {
		return -1, nil
	}
	if gr.par == nil {
		return 0, errors.New("schemes: missing block and no parity available")
	}
	for i, d := range gr.data {
		if i == missing {
			continue
		}
		if err := parity.XORInto(gr.par, d); err != nil {
			return 0, err
		}
	}
	gr.data[missing] = gr.par
	gr.par = nil
	return missing, nil
}

// bufferedGroup is a fully (or partially) read parity group staged for
// delivery. Under same-title read merging several streams may stage the
// same group in one cycle and share this struct; the physical buffers
// are read once, but every sharer carries its own logical accounting
// (slots, pooled tracks, report counters), so merged and unmerged runs
// produce bit-identical reports.
type bufferedGroup struct {
	group *layout.Group
	// data[i] holds track i of the group, nil where lost (or after its
	// ownership moved to refs[i] at delivery).
	data [][]byte
	// reconstructed[i] marks tracks rebuilt from parity.
	reconstructed []bool
	// pooled is how many buffer-pool tracks ONE sharer of this group
	// holds at staging; each sharer Acquires this amount. Engines that
	// release a group's tracks one at a time (Staggered-group) count the
	// hold down per stream, never here.
	pooled int
	// shares counts the streams currently sharing this staged group.
	// Delivery and cancellation each drop one share; the buffers recycle
	// only when the last sharer lets go.
	shares int
	// refs[i] is the delivery ref for track i, filled by the first
	// sharer to deliver it; later sharers Retain the same ref instead of
	// minting a second one (two independent refs on one buffer would
	// double-free it back to the arena). The group holds one reference
	// on each, dropped when the last sharer lets go, so a sharer may
	// deliver a track in a later Step than the first.
	refs []*buffer.Ref
	// dataReads/parityReads/recovered snapshot the physical read outcome
	// so sharers staging after the read replay identical report counters.
	dataReads   int
	parityReads int
	recovered   bool
}

// newPool builds the unbounded accounting pool every engine uses.
func newPool() *buffer.Pool {
	p, err := buffer.NewPool(0)
	if err != nil {
		// NewPool(0) cannot fail; keep the invariant loud.
		panic(err)
	}
	return p
}
