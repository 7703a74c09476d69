package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"ftmm/internal/diskmodel"
	"ftmm/internal/metrics"
	"ftmm/internal/rebuild"
	"ftmm/internal/sched"
	"ftmm/internal/server"
	"ftmm/internal/trace"
	"ftmm/internal/units"
	"ftmm/internal/workload"
)

// The engine workloads' farm and catalog match a default node: 20
// drives in clusters of C=5, K=2, eight titles of twenty parity groups.
const (
	clusterC      = 5
	catalogTitles = 8
	titleGroups   = 20
	reserveK      = 2
	// degradedCycles is how long a failure runs degraded before its
	// online rebuild starts: C cycles covers the Non-clustered
	// transition to buffer-server reads.
	degradedCycles = clusterC
)

// schemeSpec is one engine under test. Declustered parity runs on 18
// drives so they split into whole declustering groups of G=9.
type schemeSpec struct {
	name             string
	disks, decluster int
}

var engineSchemes = []schemeSpec{{"sr", 20, 0}, {"sg", 20, 0}, {"nc", 20, 0}, {"ib", 20, 0}, {"dc", 18, 9}}

var catalogNames = workload.ObjectNames("title", catalogTitles)

// titleBytes is the size of every catalog title: whole parity groups.
func titleBytes(p diskmodel.Params) int {
	return titleGroups * (clusterC - 1) * int(p.TrackSize)
}

// newEngine is the engine workloads' set-up: server.New, AddTitle for
// each title and a prestaging admit-and-cancel, as a node does it.
func newEngine(sc schemeSpec) (*server.Server, error) {
	scheme, policy, err := server.ParseScheme(sc.name)
	if err != nil {
		return nil, err
	}
	p := diskmodel.Table1()
	tracksPerTitle := titleGroups * clusterC
	p.Capacity = units.ByteSize((catalogTitles*clusterC*tracksPerTitle)/sc.disks+tracksPerTitle+50) * p.TrackSize
	srv, err := server.New(server.Options{
		Disks: sc.disks, ClusterSize: clusterC, DeclusterGroup: sc.decluster,
		DiskParams: p, Scheme: scheme, K: reserveK, NCPolicy: policy,
		// One worker: the closed loop already keeps one CPU busy, and on
		// a two-CPU machine a per-cluster fan-out onto the other one
		// made Step times follow whatever else the machine was running.
		// Reports are identical at any worker count.
		Workers: 1,
	})
	if err != nil {
		return nil, err
	}
	size := titleBytes(p)
	for i, id := range catalogNames {
		if err := srv.AddTitle(id, units.ByteSize(size), i/4, workload.SyntheticContent(id, size)); err != nil {
			return nil, err
		}
		sid, _, err := srv.Request(id)
		if err != nil {
			return nil, fmt.Errorf("prestaging %s: %w", id, err)
		}
		if err := srv.Cancel(sid); err != nil {
			return nil, err
		}
	}
	return srv, nil
}

// setupEngine builds the scheme's server setupRepeats times and keeps
// the last; it returns the median set-up time.
func setupEngine(sc schemeSpec) (*server.Server, float64, error) {
	var secs []float64
	var srv *server.Server
	for i := 0; i < setupRepeats; i++ {
		srv = nil
		// Start each set-up, and the measured phase after the last, from
		// a collected heap returned to the OS, so neither pays for the
		// previous one's garbage.
		debug.FreeOSMemory()
		t0 := time.Now()
		s, err := newEngine(sc)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", sc.name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		srv = s
	}
	debug.FreeOSMemory()
	return srv, medianOf(secs), nil
}

// engStream is one admitted stream as the closed loop tracks it.
type engStream struct {
	title string
	// admittedAt is the run's engine clock when the stream's Request
	// began.
	admittedAt time.Duration
	// anchor is the cycle the stream's track 0 is scheduled in, fixed
	// by its first event; track t is due in cycle anchor + t/k'.
	anchor int
	seen   []bool
	left   int
}

// rebuildState walks engine-rebuild's failure cycle: healthy for a
// seeded stretch, fail a seeded drive, run degraded, rebuild online.
type rebuildState int

const (
	rsHealthy rebuildState = iota
	rsDegraded
	rsRebuilding
)

// engineRun drives one scheme's server in a closed loop held at its
// admission bound.
type engineRun struct {
	sc        schemeSpec
	srv       *server.Server
	content   map[string][]byte
	trackSize int
	tracks    int // per title
	kp        int // tracks per stream per cycle
	budget    time.Duration
	pick      *picker
	streams   map[int]*engStream
	// refusedNow holds the titles admission refused this cycle.
	refusedNow map[string]bool
	// engineClock sums the wall time of every Request and Step, so
	// engine startup excludes the loop's own checking between cycles.
	engineClock time.Duration
	trace       int64 // trace-ID base for this scheme's cycles

	ph  *phase
	tr  *tracer
	lay *engineLayers // traced-phase samples; nil while untraced
	// span names, built once so untraced cycles allocate nothing extra
	nCycle, nRequest, nStep, nStepRebuilding, nVerify string

	fails       *failurePlan // nil: no failures (engine-full)
	state       rebuildState
	cur         failure
	left        int
	rebuildT0   time.Time
	rebuildCycs int
	audit       time.Duration
	rebuildSecs []float64
	rebuildCycN []float64
}

// engineLayers collects what the traced phase of one scheme measures
// besides spans.
type engineLayers struct {
	snap0    metrics.Snapshot
	active   []float64
	requests int
	refused  int
	checkUs  []float64
	verify   time.Duration
}

func newEngineRun(sc schemeSpec, srv *server.Server, content map[string][]byte, seed int64, idx int, withFailures bool) *engineRun {
	p := srv.Farm().Params()
	ts := int(p.TrackSize)
	r := &engineRun{
		sc: sc, srv: srv, content: content, trackSize: ts,
		tracks:  titleBytes(p) / ts,
		kp:      tracksPerCycle(srv.CycleTime(), srv.Rate(), ts),
		budget:  srv.CycleTime() / speedup,
		pick:    newPicker(seed, 100+idx, catalogNames),
		streams: make(map[int]*engStream),

		refusedNow: make(map[string]bool),
		trace:      int64(idx+1) << 32,

		nCycle:          "cycle/" + sc.name,
		nRequest:        "server.Request/" + sc.name,
		nStep:           "server.Step/" + sc.name,
		nStepRebuilding: "server.Step/" + sc.name + "/rebuilding",
		nVerify:         "trace.verify/" + sc.name,
	}
	if withFailures {
		r.fails = newFailurePlan(seed, 200+idx, sc.disks)
		r.cur = r.fails.next()
		r.left = r.cur.AfterCycles
	}
	return r
}

// tracksPerCycle is k′, the tracks each stream receives per cycle —
// the same rounding the network front end paces with.
func tracksPerCycle(cycle time.Duration, rate units.Rate, trackSize int) int {
	k := int(math.Round(cycle.Seconds() * rate.BytesPerSecond() / float64(trackSize)))
	if k < 1 {
		k = 1
	}
	return k
}

// fill holds the server at its admission bound: it requests
// Zipf-picked titles, skipping titles already refused this cycle, until
// every title has been refused once. Stopping at the first refusal
// instead would leave the farm under its bound whenever the refused
// title's start cluster is full but others are not, and how far under
// would depend on the pick sequence.
func (r *engineRun) fill(traceID int64, parent int) error {
	clear(r.refusedNow)
	for len(r.refusedNow) < len(catalogNames) {
		title := r.pick.next()
		if r.refusedNow[title] {
			continue
		}
		sp := r.tr.begin(r.nRequest, traceID, parent)
		t0 := time.Now()
		admittedAt := r.engineClock
		id, _, err := r.srv.Request(title)
		r.engineClock += time.Since(t0)
		r.tr.end(sp)
		if r.lay != nil {
			r.lay.requests++
		}
		if errors.Is(err, server.ErrRejected) {
			r.refusedNow[title] = true
			if r.lay != nil {
				r.lay.refused++
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("%s: request %s: %w", r.sc.name, title, err)
		}
		if _, dup := r.streams[id]; dup {
			return fmt.Errorf("%s: stream ID %d admitted twice", r.sc.name, id)
		}
		r.streams[id] = &engStream{title: title, admittedAt: admittedAt, anchor: -1, seen: make([]bool, r.tracks), left: r.tracks}
		r.ph.attempted++
		r.ph.owed += r.tracks
	}
	return nil
}

// cycle runs one closed-loop cycle: admissions (when admitting), the
// failure schedule, one Step, and the check of everything it delivered.
func (r *engineRun) cycle(admitting bool) error {
	traceID := r.trace + int64(r.srv.Engine().Cycle())
	root := r.tr.begin(r.nCycle, traceID, noSpan)
	defer r.tr.end(root)
	if admitting {
		if err := r.fill(traceID, root); err != nil {
			return err
		}
	}
	if r.lay != nil {
		r.lay.active = append(r.lay.active, float64(r.srv.Engine().Active()))
	}
	if admitting {
		if err := r.advanceFailure(); err != nil {
			return err
		}
	}
	stepName := r.nStep
	if r.state == rsRebuilding {
		stepName = r.nStepRebuilding
	}
	sp := r.tr.begin(stepName, traceID, root)
	t0 := time.Now()
	rep, err := r.srv.Step()
	stepDur := time.Since(t0)
	r.engineClock += stepDur
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: step: %w", r.sc.name, err)
	}
	if admitting {
		r.ph.cycleMs = append(r.ph.cycleMs, ms(stepDur))
		r.ph.slackMs = append(r.ph.slackMs, ms(r.budget-stepDur))
	}
	sp = r.tr.begin(r.nVerify, traceID, root)
	v0 := time.Now()
	err = r.account(rep, admitting)
	if r.lay != nil {
		r.lay.verify += time.Since(v0)
	}
	r.tr.end(sp)
	if err != nil {
		return err
	}
	return r.finishRebuildCycle(traceID, root)
}

// account checks one report: every delivery bit-exact, to a stream the
// loop admitted, once; every finished stream complete.
func (r *engineRun) account(rep *sched.CycleReport, admitting bool) error {
	for _, d := range rep.Delivered {
		st := r.streams[d.StreamID]
		if st == nil {
			return fmt.Errorf("%s: cycle %d delivered track %d to unknown stream %d", r.sc.name, rep.Cycle, d.Track, d.StreamID)
		}
		var c0 time.Time
		if r.lay != nil {
			c0 = time.Now()
		}
		if err := trace.CheckTrack(r.content[st.title], r.trackSize, d.Track, d.Data); err != nil {
			return fmt.Errorf("%s: stream %d %s cycle %d: %w", r.sc.name, d.StreamID, st.title, rep.Cycle, err)
		}
		if r.lay != nil {
			r.lay.checkUs = append(r.lay.checkUs, us(time.Since(c0)))
		}
		if err := r.mark(st, d.StreamID, d.Track, rep.Cycle); err != nil {
			return err
		}
		if st.anchor+d.Track/r.kp == rep.Cycle {
			r.ph.onTime++
		}
		if d.Track == 0 && admitting {
			r.ph.startupMs = append(r.ph.startupMs, ms(r.engineClock-st.admittedAt))
		}
		if admitting {
			r.ph.tracks++
			r.ph.verifiedBytes += int64(len(d.Data))
		}
	}
	for _, h := range rep.Hiccups {
		st := r.streams[h.StreamID]
		if st == nil {
			return fmt.Errorf("%s: cycle %d hiccup for unknown stream %d", r.sc.name, rep.Cycle, h.StreamID)
		}
		if err := r.mark(st, h.StreamID, h.Track, rep.Cycle); err != nil {
			return err
		}
	}
	for _, id := range rep.Finished {
		st := r.streams[id]
		if st == nil {
			return fmt.Errorf("%s: unknown stream %d finished", r.sc.name, id)
		}
		if st.left != 0 {
			return fmt.Errorf("%s: stream %d (%s) finished with %d owed tracks neither delivered nor hiccuped", r.sc.name, id, st.title, st.left)
		}
		r.ph.finished++
		delete(r.streams, id)
	}
	for _, id := range rep.Terminated {
		// A terminated stream is a failed one; its undelivered tracks
		// stay owed and count as missed.
		delete(r.streams, id)
	}
	return nil
}

func (r *engineRun) mark(st *engStream, id, track, cycle int) error {
	if track < 0 || track >= len(st.seen) {
		return fmt.Errorf("%s: stream %d: track %d outside title of %d tracks", r.sc.name, id, track, len(st.seen))
	}
	if st.seen[track] {
		return fmt.Errorf("%s: stream %d: track %d accounted twice", r.sc.name, id, track)
	}
	st.seen[track] = true
	st.left--
	if st.anchor < 0 {
		st.anchor = cycle - track/r.kp
	}
	return nil
}

// advanceFailure applies engine-rebuild's schedule before a Step.
func (r *engineRun) advanceFailure() error {
	if r.fails == nil {
		return nil
	}
	switch r.state {
	case rsHealthy:
		if r.left > 0 {
			r.left--
			return nil
		}
		if err := r.srv.FailDisk(r.cur.Drive); err != nil {
			return fmt.Errorf("%s: fail disk %d: %w", r.sc.name, r.cur.Drive, err)
		}
		r.state, r.left = rsDegraded, degradedCycles
	case rsDegraded:
		if r.left > 0 {
			r.left--
			return nil
		}
		r.rebuildT0 = time.Now()
		if err := r.srv.StartOnlineRebuild(r.cur.Drive, rebuildBudget()); err != nil {
			return fmt.Errorf("%s: rebuild disk %d: %w", r.sc.name, r.cur.Drive, err)
		}
		r.state, r.rebuildCycs = rsRebuilding, 0
	}
	return nil
}

// rebuildBudget is the spare reads per cycle an online rebuild spends
// beside streaming load: one parity group's worth, so one track is
// restored per cycle.
func rebuildBudget() int { return clusterC - 1 }

// idleRebuildBudget is the reads per cycle a rebuild may spend on a
// farm with no streams: every surviving drive's whole per-cycle track
// budget.
func idleRebuildBudget(srv *server.Server) int {
	return srv.Farm().Params().TrackBudget(srv.CycleTime()) * (clusterC - 1)
}

// finishRebuildCycle counts a rebuild cycle and, once the rebuild is
// done, audits parity across the farm and draws the next failure.
func (r *engineRun) finishRebuildCycle(traceID int64, parent int) error {
	if r.state != rsRebuilding {
		return nil
	}
	r.rebuildCycs++
	if r.srv.RebuildRemaining() > 0 {
		return nil
	}
	r.rebuildSecs = append(r.rebuildSecs, time.Since(r.rebuildT0).Seconds())
	r.rebuildCycN = append(r.rebuildCycN, float64(r.rebuildCycs))
	if err := r.auditParity(traceID, parent); err != nil {
		return err
	}
	r.state = rsHealthy
	r.cur = r.fails.next()
	r.left = r.cur.AfterCycles
	return nil
}

// auditParity runs rebuild.CheckAll; its time is kept out of the
// measured phase. The audit reads the whole farm into fresh buffers, so
// it also collects that garbage before serving resumes: the audit's
// memory must not show up as the server's.
func (r *engineRun) auditParity(traceID int64, parent int) error {
	sp := r.tr.begin("rebuild.CheckAll", traceID, parent)
	t0 := time.Now()
	err := rebuild.CheckAll(r.srv.Farm(), r.srv.Catalog().Layout())
	runtime.GC()
	r.audit += time.Since(t0)
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: parity after rebuilding disk %d: %w", r.sc.name, r.cur.Drive, err)
	}
	return nil
}

// serve runs admitting cycles until the deadline, finishing any
// failure round in progress so every rebuild is audited.
func (r *engineRun) serve(until time.Time) error {
	for time.Now().Before(until) || r.state != rsHealthy {
		if err := r.cycle(true); err != nil {
			return err
		}
	}
	return nil
}

// drain stops admitting, plays every stream out, and checks the engine
// handed back every buffer.
func (r *engineRun) drain() error {
	for guard := 0; r.srv.Engine().Active() > 0; guard++ {
		if guard > 10*r.tracks {
			return fmt.Errorf("%s: %d streams still active after %d drain cycles", r.sc.name, r.srv.Engine().Active(), guard)
		}
		if err := r.cycle(false); err != nil {
			return err
		}
	}
	if len(r.streams) != 0 {
		return fmt.Errorf("%s: %d admitted streams never finished or terminated", r.sc.name, len(r.streams))
	}
	// Delivered buffers are held for two Steps after delivery.
	for i := 0; i < 2; i++ {
		if _, err := r.srv.Step(); err != nil {
			return err
		}
	}
	if n := r.srv.Engine().BufferInUse(); n != 0 {
		return fmt.Errorf("%s: %d track buffers still in use after drain", r.sc.name, n)
	}
	return nil
}

// idleRebuild fails and rebuilds rounds seeded drives on a farm with
// no streams, auditing parity after each; it returns each rebuild's
// wall time and cycle count.
func idleRebuild(name string, srv *server.Server, plan *failurePlan, tr *tracer, rounds int) (secs, cycles []float64, err error) {
	for i := 0; i < rounds; i++ {
		f := plan.next()
		if err := srv.FailDisk(f.Drive); err != nil {
			return nil, nil, fmt.Errorf("%s: fail disk %d: %w", name, f.Drive, err)
		}
		if _, err := srv.Step(); err != nil {
			return nil, nil, err
		}
		// Collect the last round's replaced tracks first, so this
		// round's writes reuse that memory instead of faulting in new
		// pages, which costs as much as the rebuild itself.
		runtime.GC()
		root := tr.begin("rebuild.idle/"+name, int64(i), noSpan)
		t0 := time.Now()
		if err := srv.StartOnlineRebuild(f.Drive, idleRebuildBudget(srv)); err != nil {
			return nil, nil, fmt.Errorf("%s: rebuild disk %d: %w", name, f.Drive, err)
		}
		n := 0
		for ; srv.RebuildRemaining() > 0; n++ {
			sp := tr.begin("server.Step/"+name+"/idle-rebuild", int64(i), root)
			rep, err := srv.Step()
			tr.end(sp)
			if err != nil {
				return nil, nil, err
			}
			if len(rep.Delivered) != 0 {
				return nil, nil, fmt.Errorf("%s: idle farm delivered %d tracks", name, len(rep.Delivered))
			}
		}
		secs = append(secs, time.Since(t0).Seconds())
		tr.end(root)
		cycles = append(cycles, float64(n))
		if err := rebuild.CheckAll(srv.Farm(), srv.Catalog().Layout()); err != nil {
			return nil, nil, fmt.Errorf("%s: parity after idle rebuild of disk %d: %w", name, f.Drive, err)
		}
	}
	return secs, cycles, nil
}

// runEngine is engine-full (withFailures false) and engine-rebuild:
// each scheme in turn gets an equal share of the run.
func runEngine(cfg runConfig, withFailures bool) (*outcome, error) {
	content := make(map[string][]byte)
	size := titleBytes(diskmodel.Table1())
	for _, id := range catalogNames {
		content[id] = workload.SyntheticContent(id, size)
	}
	out := newOutcome(cfg.trace)
	slice := cfg.seconds / time.Duration(len(engineSchemes))
	for idx, sc := range engineSchemes {
		if err := runScheme(cfg, idx, sc, content, slice, withFailures, out); err != nil {
			return nil, err
		}
		if out.err != nil {
			return out, nil
		}
	}
	return out, nil
}

// runScheme sets up, measures and drains one scheme, adding its set-up
// and rebuild times to out. A failed output check is recorded in out;
// the returned error is a set-up failure. The scheme's server is
// garbage once it returns.
func runScheme(cfg runConfig, idx int, sc schemeSpec, content map[string][]byte, slice time.Duration, withFailures bool, out *outcome) error {
	srv, setupS, err := setupEngine(sc)
	if err != nil {
		return err
	}
	out.setupS += setupS
	r := newEngineRun(sc, srv, content, cfg.seed, idx, withFailures)
	if err := r.measure(cfg, slice, out); err != nil {
		out.failed(err)
		return nil
	}
	secs, cycles := r.rebuildSecs, r.rebuildCycN
	if !withFailures {
		plan := newFailurePlan(cfg.seed, 300+idx, sc.disks)
		secs, cycles, err = idleRebuild(sc.name, srv, plan, out.tr, rebuildRounds)
		if err != nil {
			out.failed(err)
			return nil
		}
	}
	if len(secs) == 0 {
		out.failed(fmt.Errorf("%s: no rebuild completed", sc.name))
		return nil
	}
	out.rebuildS += medianOf(secs)
	out.layer("rebuild.cycles."+sc.name, medianOf(cycles))
	return nil
}

// measure runs the scheme's share of the run and drains it. Traced runs
// split the share: an untraced half, then a traced half, so the
// tracing overhead is the difference between the two.
func (r *engineRun) measure(cfg runConfig, slice time.Duration, out *outcome) error {
	halves := []bool{false}
	if cfg.trace {
		halves = []bool{false, true}
	}
	each := slice / time.Duration(len(halves))
	for _, traced := range halves {
		ph := &phase{label: r.sc.name}
		r.ph = ph
		if traced {
			r.tr = out.tr
			r.lay = &engineLayers{snap0: r.srv.MetricsSnapshot()}
		}
		r.audit = 0
		ph.begin()
		if err := r.serve(time.Now().Add(each)); err != nil {
			return err
		}
		ph.finish(r.audit)
		if traced {
			out.engineLayers(r)
		}
		out.addPhase(ph, traced)
	}
	// Streams still playing belong to the last phase: their tracks are
	// owed and checked, though no longer timed.
	r.tr, r.lay = nil, nil
	return r.drain()
}
