// Performance-baseline mode: -bench-baseline <path> runs the data-path
// benchmark rows (one scheduling cycle per scheme, the netserve delivery
// paths, plus the parity substrate) via testing.Benchmark and writes
// ns/op, allocs/op, and the stream count to a BENCH_*.json file.
// baselineSpecs is the only definition of those rows; `go test -bench
// Rows ./cmd/ftmmbench` runs the same table (rows_test.go).
//
// If the output file already exists, its previous "benchmarks" section
// is carried forward as "pre_change" (unless it already carries one), so
// a committed baseline records both sides of an optimisation: write the
// old numbers once, re-run after the change, diff inside one file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ftmm/internal/chaos"
	"ftmm/internal/cluster"
	"ftmm/internal/disk"
	"ftmm/internal/diskmodel"
	"ftmm/internal/layout"
	"ftmm/internal/metrics"
	"ftmm/internal/netserve"
	"ftmm/internal/node"
	"ftmm/internal/parity"
	"ftmm/internal/schemes"
	"ftmm/internal/server"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// benchEntry is one benchmark's result in the baseline file.
type benchEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	// Streams is the number of active streams the engine serves during
	// the measured cycles (0 for substrate microbenchmarks).
	Streams int `json:"streams"`
	// Extra carries b.ReportMetric columns — for the fan-out rows, the
	// pipeline phase breakdown (mean read/stage µs per cycle and overlap
	// percentage). Informational; the compare gate ignores it.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// baselineFile is the BENCH_*.json wire shape.
type baselineFile struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS the rows ran at. The engine's per-cycle goroutines make
	// allocs/op depend on it, so -bench-compare refuses two files that
	// record different values. Zero (absent) in files that predate it.
	GOMAXPROCS int          `json:"gomaxprocs,omitempty"`
	Benchmarks []benchEntry `json:"benchmarks"`
	// Capacity holds the scheme-comparison section: degraded-mode
	// stream capacity and measured rebuild window per scheme (see
	// capacity.go). Deterministic counts, unlike the timing rows.
	Capacity []capacityEntry `json:"capacity,omitempty"`
	// PreChange holds the numbers from before the change under test,
	// carried forward from the file's previous contents.
	PreChange []benchEntry `json:"pre_change,omitempty"`
}

// baselineSpec is one data-path benchmark row.
type baselineSpec struct {
	name    string
	streams int
	// scheme tags a scheme-specific row with the -schemes name that
	// selects it; untagged rows always run.
	scheme string
	// benchTime overrides -test.benchtime for this row under
	// -bench-baseline ("" keeps the default).
	benchTime string
	run       func(b *testing.B)
}

const (
	baselineTrack = 50_000 // Table 1 track size in bytes
	nObj          = 8      // streams in every Cycle* row
)

func baselineSpecs() []baselineSpec {
	dedicated := clusteredRig(layout.DedicatedParity)
	return []baselineSpec{
		{name: "CycleStreamingRAID", streams: nObj, scheme: "sr",
			run: cycleRun(dedicated, nObj*5, false, false, func(c schemes.Config) (schemes.Simulator, error) {
				return schemes.NewStreamingRAID(c)
			})},
		{name: "CycleStaggeredGroup", streams: nObj, scheme: "sg",
			run: cycleRun(dedicated, nObj/4*5, true, false, func(c schemes.Config) (schemes.Simulator, error) {
				return schemes.NewStaggeredGroup(c)
			})},
		{name: "CycleNonClustered", streams: nObj, scheme: "nc",
			run: cycleRun(dedicated, nObj, true, false, newNonClustered)},
		{name: "CycleNonClusteredDegraded", streams: nObj, scheme: "nc",
			run: cycleRun(dedicated, nObj, true, true, newNonClustered)},
		{name: "CycleImprovedBandwidth", streams: nObj, scheme: "ib",
			run: cycleRun(clusteredRig(layout.IntermixedParity), nObj*4, false, false, func(c schemes.Config) (schemes.Simulator, error) {
				return schemes.NewImprovedBandwidth(c, 2)
			})},
		{name: "CycleDeclustered", streams: nObj, scheme: "dc",
			run: cycleRun(declusteredRig, nObj*5, false, false, func(c schemes.Config) (schemes.Simulator, error) {
				return schemes.NewDeclustered(c)
			})},
		{name: "NetserveLoopbackStream", streams: 1, run: func(b *testing.B) {
			// End-to-end network delivery, steady state: one client streams
			// long titles over loopback TCP with virtual-clock pacing and
			// reused payload buffers; the op is one TRACK frame arriving at
			// the client, with dial/admit amortized off the timer. The
			// number is protocol + socket cost of the zero-copy write path.
			ns, _, names, trackSize := netserveRig(b, 1, 128, 0, netserve.Options{Clock: netserve.VirtualClock()})
			defer ns.Close()
			dial := func() *netserve.Client {
				cl, err := netserve.Dial(ns.Addr().String(), 30*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				cl.ReuseBuffers(true)
				if _, err := cl.Admit(names[0]); err != nil {
					b.Fatal(err)
				}
				return cl
			}
			cl := dial()
			defer func() { cl.Close() }()
			b.SetBytes(int64(trackSize))
			b.ResetTimer()
			for delivered := 0; delivered < b.N; {
				ev, err := cl.Next()
				if err != nil {
					b.Fatal(err)
				}
				switch {
				case ev.Bye != nil:
					b.StopTimer()
					cl.Close()
					cl = dial()
					b.StartTimer()
				case ev.Hiccup != nil:
					b.Fatalf("hiccup: %+v", ev.Hiccup)
				default:
					delivered++
				}
			}
		}},
		{name: "NetserveFanout64", streams: 64, run: func(b *testing.B) {
			// Fan-out: 64 concurrent sessions over loopback, 8 per title.
			// Like the wider fan-out rows, the cohort's dials and ADMIT
			// handshakes run off the timer (64 TCP dials alone cost more
			// allocations than a whole title's delivery) and the op is one
			// delivered TRACK frame, so MB/s is the aggregate delivery rate
			// and allocs/op isolates the steady-state zero-copy path —
			// refcounted tracks shared across sessions, one vectored write
			// per session per cycle — from connection setup.
			benchFanoutTracks(b, 64, 8, 8)
		}},
		{name: "NetserveFanout1k", streams: 1000, run: func(b *testing.B) {
			// Wide fan-out on the Zipf head: 1000 concurrent sessions, 100
			// per title, admitted in lockstep so every title's pack is
			// served from one shared merged burst per cycle. One op is one
			// TRACK frame arriving at some client; allocs/op must stay flat
			// in the session count (the gate pins it near the single-stream
			// row), which is only possible when staging, headers, and
			// payload references are shared across the pack.
			benchFanoutTracks(b, 1000, 10, 24)
		}},
		{name: "NetserveFlashCrowd", streams: 96, run: func(b *testing.B) {
			// Flash crowd with batched starts: 96 sessions, 24 per title,
			// all arriving inside a 2-cycle admission window, so each
			// title's crowd flushes as one batch onto one shared staged
			// run. The merged-starts/run column is the acceptance number
			// (it must be well above 1 for the batching to mean anything);
			// wait-p50/p99-ms are the client-visible cost of the window.
			benchFlashCrowdTracks(b, 96, 4, 8, 2)
		}},
		{name: "ClusterFanout24", streams: 24, run: func(b *testing.B) {
			// Sharded fan-out: 24 concurrent sessions admitted through the
			// coordinator across a 3-node cluster (each node holds its
			// rendezvous placement slice, cold titles on 2 replicas). One
			// op is a full wave — every client redirected to a holder and
			// streaming its whole title — so the number is the admission
			// plane's routing overhead plus three nodes' delivery paths
			// running concurrently.
			const fanout = 24
			nodes, coord, names, titleSize := clusterBenchRig(b, 3, 8, 8)
			defer coord.Close()
			defer func() {
				for _, n := range nodes {
					n.Close()
				}
			}()
			b.SetBytes(int64(fanout) * int64(titleSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make(chan error, fanout)
				for s := 0; s < fanout; s++ {
					wg.Add(1)
					go func(title string) {
						defer wg.Done()
						if err := streamViaOnce(coord.Addr().String(), title); err != nil {
							errs <- err
						}
					}(names[s%len(names)])
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
			}
		}},
		{name: "ParityEncode", run: func(b *testing.B) {
			blocks := parityBlocks(4)
			b.SetBytes(4 * baselineTrack)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := parity.Encode(blocks); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "ParityReconstruct", run: func(b *testing.B) {
			// Allocation-free reconstruction into a reused block; the op
			// touches four blocks (three survivors in, one rebuilt out),
			// accounted like Encode so the two rows' MB/s are comparable.
			g, err := parity.NewGroup(parityBlocks(4))
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]byte, baselineTrack)
			b.SetBytes(4 * baselineTrack)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.ReconstructDataInto(dst, 2); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "ParityXORInto", run: xorRun(parity.XORInto)},
		{name: "ParityXORIntoRef", run: xorRun(parity.XORIntoRef)},
		{name: "NetserveFanout10k", streams: 10_000, benchTime: "8s", run: func(b *testing.B) {
			// Ten thousand sessions: ~20k sockets on one box, so the row
			// first raises RLIMIT_NOFILE, and a longer bench time lets the
			// iteration count climb past one cohort's first cycle.
			if raceEnabled {
				b.Skip("the race detector caps live goroutines at 8128; the row runs 10k consumers")
			}
			if err := raiseFDLimit(25_000); err != nil {
				// Unprivileged containers often pin the hard limit below the
				// ask; the row skips rather than failing the whole run, and
				// runBaseline drops the empty result from the file.
				// testing.Benchmark swallows skip logs, hence the direct print.
				fmt.Fprintf(os.Stderr, "NetserveFanout10k: %v (skipping row)\n", err)
				b.Skip(err)
			}
			benchFanoutTracks(b, 10_000, 10, 12)
		}},
	}
}

// selectRows returns the rows a -schemes filter keeps: every untagged
// row plus the rows tagged with a named scheme (nc-simple selects the nc
// rows). An empty filter keeps every row.
func selectRows(only []string) []baselineSpec {
	var rows []baselineSpec
	for _, r := range baselineSpecs() {
		if r.scheme == "" || len(only) == 0 || slices.ContainsFunc(only, func(o string) bool {
			return o == r.scheme || (r.scheme == "nc" && o == "nc-simple")
		}) {
			rows = append(rows, r)
		}
	}
	return rows
}

// engineRig builds the Cycle* rows' catalog: nObj objects of 200 parity
// groups of C=5, written in full.
type engineRig func(tb testing.TB) (schemes.Config, []*layout.Object)

// clusteredRig places the catalog on 20 drives in clusters of 5.
func clusteredRig(placement layout.Placement) engineRig {
	return func(tb testing.TB) (schemes.Config, []*layout.Object) {
		return buildEngineRig(tb, 20, 5, func(f *disk.Farm) (*layout.Layout, error) {
			return layout.ForFarm(f, placement)
		})
	}
}

// declusteredRig places the catalog on two 9-drive declustering groups
// via the complete (9,5) design.
func declusteredRig(tb testing.TB) (schemes.Config, []*layout.Object) {
	return buildEngineRig(tb, 18, 9, func(f *disk.Farm) (*layout.Layout, error) {
		return layout.ForFarmDeclustered(f, 5)
	})
}

// buildEngineRig writes the catalog onto d drives in groups of g, laid
// out by newLayout.
func buildEngineRig(tb testing.TB, d, g int, newLayout func(*disk.Farm) (*layout.Layout, error)) (schemes.Config, []*layout.Object) {
	p := diskmodel.Table1()
	const c, groups = 5, 200
	p.Capacity = units.ByteSize(nObj*groups*c/d+groups*c+10) * p.TrackSize
	farm, err := disk.NewFarm(d, g, p)
	if err != nil {
		tb.Fatal(err)
	}
	lay, err := newLayout(farm)
	if err != nil {
		tb.Fatal(err)
	}
	trackSize := int(p.TrackSize)
	var objs []*layout.Object
	for i := 0; i < nObj; i++ {
		id := fmt.Sprintf("obj%d", i)
		obj, err := lay.AddObject(id, groups*(c-1), i%lay.Clusters(), units.MPEG1)
		if err != nil {
			tb.Fatal(err)
		}
		if err := layout.WriteObject(farm, obj, workload.SyntheticContent(id, groups*(c-1)*trackSize)); err != nil {
			tb.Fatal(err)
		}
		objs = append(objs, obj)
	}
	return schemes.Config{Farm: farm, Layout: lay, Rate: units.MPEG1}, objs
}

func newNonClustered(c schemes.Config) (schemes.Simulator, error) {
	return schemes.NewNonClustered(c, schemes.AlternateSwitchover, 2)
}

// cycleRun measures one engine Step with every rig object admitted as a
// stream, perCycle tracks moved per cycle. prime steps once per
// admission, as the staggered-admission engines need. degraded fails
// drive 0 after admission; that mutates the farm, so each engine
// instance then gets a fresh rig. The engine is rebuilt off the clock
// whenever its finite streams run out.
func cycleRun(rig engineRig, perCycle int, prime, degraded bool, newEngine func(schemes.Config) (schemes.Simulator, error)) func(*testing.B) {
	return func(b *testing.B) {
		var cfg schemes.Config
		var objs []*layout.Object
		if !degraded {
			cfg, objs = rig(b)
		}
		build := func() schemes.Simulator {
			if degraded {
				cfg, objs = rig(b)
			}
			e, err := newEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range objs {
				if _, err := e.AddStream(o); err != nil {
					b.Fatal(err)
				}
				if prime {
					if _, err := e.Step(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if degraded {
				if err := e.FailDisk(0); err != nil {
					b.Fatal(err)
				}
			}
			return e
		}
		e := build()
		b.SetBytes(int64(perCycle) * baselineTrack)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if e.Active() == 0 {
				b.StopTimer()
				e = build()
				b.StartTimer()
			}
			if _, err := e.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// xorRun measures one XOR kernel on a track-sized block pair.
func xorRun(xor func(dst, src []byte) error) func(*testing.B) {
	return func(b *testing.B) {
		blocks := parityBlocks(2)
		b.SetBytes(baselineTrack)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := xor(blocks[0], blocks[1]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// rigCluster is netserveRig's cluster size.
const rigCluster = 4

// netserveRig builds a loopback SR farm (8 drives in clusters of 4,
// titles of groups parity groups spread across both clusters) behind a
// netserve front end built from opts. The send queue holds a whole
// title: with a virtual clock or none, cycles run back to back, so the
// queue is the only flow control and must keep the engine from
// outrunning and shedding the clients. slots > 0 lifts the admission
// budget to that many streams per disk: the wide fan-out rows measure
// the delivery plane, not the paper's admission bound (with merged
// reads the physical load is per title, not per session).
func netserveRig(tb testing.TB, titles, groups, slots int, opts netserve.Options) (*netserve.NetServer, *server.Server, []string, int) {
	scheme, policy, err := server.ParseScheme("sr")
	if err != nil {
		tb.Fatal(err)
	}
	const d, c, reserve = 8, rigCluster, 2
	p := diskmodel.Table1()
	tracksPerTitle := groups * c
	p.Capacity = units.ByteSize(titles*c*tracksPerTitle/d+tracksPerTitle+50) * p.TrackSize
	srv, err := server.New(server.Options{
		Disks: d, ClusterSize: c,
		DiskParams: p, Scheme: scheme, K: reserve, NCPolicy: policy,
		SlotsPerDisk: slots,
	})
	if err != nil {
		tb.Fatal(err)
	}
	trackSize := int(p.TrackSize)
	titleSize := groups * (c - 1) * trackSize
	names := workload.ObjectNames("bench", titles)
	for i, id := range names {
		if err := srv.AddTitle(id, units.ByteSize(titleSize), i, workload.SyntheticContent(id, titleSize)); err != nil {
			tb.Fatal(err)
		}
	}
	opts.Server, opts.SendQueue = srv, groups+8
	ns, err := netserve.New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return ns, srv, names, trackSize
}

// cohort is one wave of bench sessions, each drained by its own consumer
// goroutine until the title's BYE.
type cohort struct {
	clients  []*netserve.Client
	wg       sync.WaitGroup
	finished atomic.Int32
	tracks   atomic.Int64 // TRACK frames received across the cohort
	errs     chan error
}

// startCohort dials n sessions with reused buffers, round-robin across
// names, and starts one consumer per session. With admitFirst every
// session ADMITs here, before any consumer runs, so the whole cohort
// starts in the same cycle; otherwise each consumer ADMITs from its own
// goroutine (the flash-crowd path, where ADMIT blocks until the batch
// flushes under a StepCycle).
func startCohort(b *testing.B, ns *netserve.NetServer, names []string, n int, admitFirst bool) *cohort {
	c := &cohort{clients: make([]*netserve.Client, n), errs: make(chan error, n)}
	for i := range c.clients {
		cl, err := netserve.Dial(ns.Addr().String(), 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		cl.ReuseBuffers(true)
		if admitFirst {
			if _, err := cl.Admit(names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
		}
		c.clients[i] = cl
	}
	for i, cl := range c.clients {
		admit := ""
		if !admitFirst {
			admit = names[i%len(names)]
		}
		c.wg.Add(1)
		go c.consume(cl, admit)
	}
	return c
}

func (c *cohort) consume(cl *netserve.Client, admit string) {
	defer c.wg.Done()
	defer c.finished.Add(1)
	defer cl.Close()
	if admit != "" {
		if _, err := cl.Admit(admit); err != nil {
			c.errs <- err
			return
		}
	}
	for {
		ev, err := cl.Next()
		if err != nil {
			c.errs <- err
			return
		}
		switch {
		case ev.Hiccup != nil:
			c.errs <- fmt.Errorf("hiccup: %+v", ev.Hiccup)
			return
		case ev.Bye != nil:
			if ev.Bye.Reason != "finished" {
				c.errs <- fmt.Errorf("bye %q", ev.Bye.Reason)
			}
			return
		default:
			c.tracks.Add(1)
		}
	}
}

// done reports whether every session has seen its BYE (or failed).
func (c *cohort) done() bool { return c.finished.Load() == int32(len(c.clients)) }

// yield waits out a cohort whose titles are fully pushed (or queued):
// stepping is an idle no-op while it drains.
func (c *cohort) yield(b *testing.B, start time.Time) {
	time.Sleep(200 * time.Microsecond)
	if time.Since(start) > 2*time.Minute {
		b.Fatal("cohort never drained")
	}
}

// finish unwinds the cohort off the clock. A cohort cut short at b.N is
// force-closed, which makes its consumers' read errors expected, so they
// are dropped; a cohort that ran to the end must report none.
func (c *cohort) finish(b *testing.B) {
	if !c.done() {
		for _, cl := range c.clients {
			cl.Close()
		}
		c.wg.Wait()
		return
	}
	c.wg.Wait()
	close(c.errs)
	for err := range c.errs {
		b.Fatal(err)
	}
}

// benchFanoutTracks drives the fan-out rows: admit the whole cohort off
// the timer (fanout sessions, round-robin across the titles, all in the
// same cycle so same-title packs stay in lockstep), then step cycles
// until b.N tracks have gone out, admitting a fresh cohort whenever the
// titles run dry. The op is one delivered TRACK frame, counted across
// all sessions, so SetBytes(trackSize) makes MB/s the aggregate delivery
// rate.
func benchFanoutTracks(b *testing.B, fanout, titles, groups int) {
	perCycle := fanout * (rigCluster - 1)
	ns, srv, names, trackSize := netserveRig(b, titles, groups, fanout, netserve.Options{})
	defer ns.Close()
	b.SetBytes(int64(trackSize))
	b.ResetTimer()
	for delivered := 0; delivered < b.N; {
		b.StopTimer()
		c := startCohort(b, ns, names, fanout, true)
		b.StartTimer()
		start := time.Now()
		for cyc := 0; !c.done() && delivered < b.N; cyc++ {
			if err := ns.StepCycle(); err != nil {
				b.Fatal(err)
			}
			if cyc < groups {
				delivered += perCycle
			} else {
				c.yield(b, start)
			}
		}
		b.StopTimer()
		c.finish(b)
		b.StartTimer()
	}
	b.StopTimer()
	reportPhases(b, srv.Metrics())
}

// benchFlashCrowdTracks drives the flash-crowd row: the front end runs
// with BatchCycles, so every fresh ADMIT parks in its title's batch and
// the whole same-title pack starts in lockstep on one shared staged
// run. The cohort dials off the timer and the clock only starts once
// every connection is parked — the batch window is measured in engine
// cycles, which advance only under the bench's StepCycle, so each
// title's crowd lands in exactly one batch. One op is one TRACK frame
// arriving at some client; the extra columns report the merge payoff —
// mean batched starts per staged run and the bucket-resolution
// batch-wait percentiles, the same numbers /metricsz serves from
// net_batched_starts, net_batch_runs, and net_batch_wait_ms.
func benchFlashCrowdTracks(b *testing.B, fanout, titles, groups, batchCycles int) {
	ns, srv, names, trackSize := netserveRig(b, titles, groups, fanout, netserve.Options{BatchCycles: batchCycles})
	defer ns.Close()
	b.SetBytes(int64(trackSize))
	b.ResetTimer()
	for delivered := int64(0); delivered < int64(b.N); {
		b.StopTimer()
		c := startCohort(b, ns, names, fanout, false)
		// The crowd must be fully parked before the window starts
		// closing, or stragglers would spill into a second batch.
		for start := time.Now(); ns.PendingStarts() < fanout; {
			if c.finished.Load() > 0 {
				b.Fatal("client died during flash-crowd admission")
			}
			if time.Since(start) > time.Minute {
				b.Fatalf("only %d/%d starts parked", ns.PendingStarts(), fanout)
			}
			time.Sleep(50 * time.Microsecond)
		}
		b.StartTimer()
		start := time.Now()
		for cyc := 0; !c.done() && delivered+c.tracks.Load() < int64(b.N); cyc++ {
			if err := ns.StepCycle(); err != nil {
				b.Fatal(err)
			}
			if cyc > batchCycles+groups {
				c.yield(b, start)
			}
		}
		b.StopTimer()
		c.finish(b)
		delivered += c.tracks.Load()
		b.StartTimer()
	}
	b.StopTimer()
	reportPhases(b, srv.Metrics())
	snap := srv.Metrics().Snapshot()
	if runs := snap.Counters["net_batch_runs"]; runs > 0 {
		b.ReportMetric(float64(snap.Counters["net_batched_starts"])/float64(runs), "merged-starts/run")
	}
	if h := snap.Histograms["net_batch_wait_ms"]; h.Count > 0 {
		b.ReportMetric(float64(h.P50), "wait-p50-ms")
		b.ReportMetric(float64(h.P99), "wait-p99-ms")
	}
}

// reportPhases turns the front end's pipeline histograms into extra
// benchmark columns: mean engine-read and staging-pass time per cycle
// (µs) and the mean share of each read that overlapped the previous
// cycle's staging (the pipeline's payoff, in percent). The columns ride
// into the baseline file's "extra" field; they are informational, not
// gated.
func reportPhases(b *testing.B, m *metrics.Registry) {
	for _, p := range []struct{ hist, unit string }{
		{"pipe_read_us", "read-us/cycle"},
		{"pipe_stage_us", "stage-us/cycle"},
		{"pipe_overlap_pct", "overlap-%"},
	} {
		if h := m.Histogram(p.hist); h.Count() > 0 {
			b.ReportMetric(h.Mean(), p.unit)
		}
	}
}

// clusterBenchRig builds nNodes loopback shards behind a coordinator,
// all on virtual clocks: each node serves its rendezvous placement
// slice of the catalog (8 drives in clusters of 4 per node, 2 replicas
// per title), and one heartbeat tick disseminates the initial view.
func clusterBenchRig(tb testing.TB, nNodes, titles, groups int) ([]*node.Node, *netserve.Coordinator, []string, int) {
	names := workload.ObjectNames("bench", titles)
	ids := make([]string, nNodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node%d", i)
	}
	plCfg := cluster.PlacementConfig{Seed: 1, Replicas: 2}
	pl := cluster.Assign(names, ids, plCfg)
	var nodes []*node.Node
	var members []cluster.Member
	for _, id := range ids {
		n, err := node.Start(node.Config{
			ID: id, Scheme: "sr",
			Disks: 8, Cluster: 4, K: 2,
			Titles: pl.Titles(id), Groups: groups,
			Clock: netserve.VirtualClock(), SendQueue: groups + 8,
		})
		if err != nil {
			tb.Fatal(err)
		}
		nodes = append(nodes, n)
		members = append(members, cluster.Member{ID: id, Addr: n.Addr()})
	}
	coord, err := netserve.NewCoordinator(netserve.CoordinatorOptions{
		Nodes: members, Titles: names, Placement: plCfg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	coord.Tick()
	return nodes, coord, names, nodes[0].TitleSize()
}

// streamViaOnce admits through the coordinator (following its REDIRECT
// to the serving node, retrying transient capacity rejections) and
// consumes one full title with reused buffers.
func streamViaOnce(addr, title string) error {
	var cl *netserve.Client
	for attempt := 0; ; attempt++ {
		c, _, err := netserve.AdmitVia(addr, title, 30*time.Second)
		if err != nil {
			var rej *netserve.RejectedError
			if errors.As(err, &rej) && rej.Reject.RetryAfterMillis >= 0 && attempt < 10000 {
				time.Sleep(200 * time.Microsecond)
				continue
			}
			return err
		}
		c.ReuseBuffers(true)
		cl = c
		break
	}
	defer cl.Close()
	for {
		ev, err := cl.Next()
		if err != nil {
			return err
		}
		if ev.Bye != nil {
			if ev.Bye.Reason != "finished" {
				return fmt.Errorf("stream %s ended with bye %q", title, ev.Bye.Reason)
			}
			return nil
		}
	}
}

// raiseFDLimit lifts the soft (and if needed, hard) RLIMIT_NOFILE to n.
func raiseFDLimit(n uint64) error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return err
	}
	if lim.Cur >= n {
		return nil
	}
	want := lim
	want.Cur = n
	if want.Max < n {
		want.Max = n // raising the hard limit needs privilege; fails cleanly without it
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &want); err != nil {
		return fmt.Errorf("raise RLIMIT_NOFILE %d -> %d for the 10k fan-out: %w", lim.Cur, n, err)
	}
	return nil
}

func parityBlocks(n int) [][]byte {
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = workload.SyntheticContent(fmt.Sprintf("b%d", i), baselineTrack)
	}
	return blocks
}

// runBaseline executes the suite and writes the baseline file,
// preserving prior numbers as pre_change. It prints a per-benchmark
// summary, including the allocs/op delta against pre_change when one is
// available. A non-empty `only` (the -schemes flag) restricts the
// scheme-specific rows and the capacity section to the named schemes;
// substrate and netserve rows always run.
func runBaseline(path string, only []string) error {
	prev, err := readBaseline(path)
	if err != nil {
		return err
	}

	out := baselineFile{
		Schema:     "ftmm-bench-baseline/1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if prev != nil {
		if len(prev.PreChange) > 0 {
			out.PreChange = prev.PreChange
		} else {
			out.PreChange = prev.Benchmarks
		}
	}
	pre := map[string]benchEntry{}
	for _, e := range out.PreChange {
		pre[e.Name] = e
	}

	for _, spec := range selectRows(only) {
		restore := setBenchTime(spec.benchTime)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			spec.run(b)
		})
		restore()
		if r.N == 0 {
			// The benchmark failed or skipped (testing.Benchmark returns a
			// zero result either way); keep it out of the file so the JSON
			// stays finite and the compare gate just reports a missing row.
			fmt.Printf("%-28s skipped (no iterations; see output above)\n", spec.name)
			continue
		}
		e := benchEntry{
			Name:        spec.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Streams:     spec.streams,
		}
		if r.Bytes > 0 && r.T > 0 {
			e.MBPerSec = float64(r.Bytes) * float64(r.N) / r.T.Seconds() / 1e6
		}
		if len(r.Extra) > 0 {
			e.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				e.Extra[k] = v
			}
		}
		out.Benchmarks = append(out.Benchmarks, e)
		line := fmt.Sprintf("%-28s %12.0f ns/op %8d allocs/op %10d B/op",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
		if p, ok := pre[e.Name]; ok && p.AllocsPerOp > 0 {
			line += fmt.Sprintf("   allocs vs pre_change: %+.0f%%",
				100*(float64(e.AllocsPerOp)-float64(p.AllocsPerOp))/float64(p.AllocsPerOp))
		}
		fmt.Println(line)
		if len(e.Extra) > 0 {
			keys := make([]string, 0, len(e.Extra))
			for k := range e.Extra {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			phases := "    phases:"
			for _, k := range keys {
				phases += fmt.Sprintf(" %s=%.0f", k, e.Extra[k])
			}
			fmt.Println(phases)
		}
	}

	if err := checkParityTiers(out.Benchmarks); err != nil {
		return err
	}

	capSchemes := only
	if len(capSchemes) == 0 {
		capSchemes = chaos.SchemeNames()
	}
	if out.Capacity, err = capacityRows(capSchemes); err != nil {
		return err
	}
	if err := checkRebuildWindows(out.Capacity); err != nil {
		return err
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// checkParityTiers asserts ParityReconstruct runs at no less than half
// of ParityEncode's throughput. The two rows use identical byte
// accounting (four blocks per op), so a big gap means the reconstruct
// path fell off the fast XOR kernel onto the byte-wise reference — the
// regression that once had Reconstruct at ~2.4 GB/s against Encode's ~16.
func checkParityTiers(rows []benchEntry) error {
	var enc, rec float64
	for _, e := range rows {
		switch e.Name {
		case "ParityEncode":
			enc = e.MBPerSec
		case "ParityReconstruct":
			rec = e.MBPerSec
		}
	}
	if enc <= 0 || rec <= 0 {
		return nil
	}
	if rec < enc/2 {
		return fmt.Errorf("ParityReconstruct at %.0f MB/s is below half of ParityEncode's %.0f MB/s: reconstruct is off the fast kernel", rec, enc)
	}
	fmt.Printf("parity tier check: Reconstruct %.0f MB/s vs Encode %.0f MB/s (>= 0.5x ok)\n", rec, enc)
	return nil
}

// setBenchTime overrides -test.benchtime for one row (a 10k-session
// cycle moves ~1.5 GB, so at the default 1s testing.Benchmark would stop
// near one cycle) and returns a function that restores the default.
func setBenchTime(d string) func() {
	if d == "" {
		return func() {}
	}
	testing.Init()
	bt := flag.Lookup("test.benchtime")
	if bt == nil {
		return func() {}
	}
	old := bt.Value.String()
	_ = bt.Value.Set(d)
	return func() { _ = bt.Value.Set(old) }
}

// readBaseline loads an existing baseline file; a missing file is not an
// error (first run), a malformed one is.
func readBaseline(path string) (*baselineFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f baselineFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: existing baseline unreadable: %w", path, err)
	}
	return &f, nil
}
