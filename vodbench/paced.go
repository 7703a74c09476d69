package main

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"ftmm/internal/metrics"
	"ftmm/internal/netserve"
	"ftmm/internal/node"
	"ftmm/internal/trace"
	"ftmm/internal/workload"
)

// viewers is how many closed-loop viewers play at once: one per CPU of
// the two-CPU machine the benchmark is sized for, so the viewers do not
// queue behind each other for a processor.
const viewers = 2

// readTimeout bounds every frame a viewer waits for; a paced cycle is
// tens of milliseconds, so hitting it means the server stalled.
const readTimeout = 10 * time.Second

// deadline is when track i of a session is due at the viewer: one cycle
// of startup prefetch after the first track, then k′ tracks per cycle,
// deadline_i = tFirst + T′ + i·T′/k′.
func deadline(tFirst time.Time, cycle time.Duration, burst, track int) time.Time {
	return tFirst.Add(cycle + time.Duration(int64(track)*int64(cycle)/int64(burst)))
}

// session is what one viewer saw of one title.
type session struct {
	owed, onTime int
	finished     bool
	bytes        int64
	slackMs      []float64
	startupMs    float64
	periodMs     []float64 // burst-to-burst gaps
	dialUs       float64
	admitUs      float64
	firstTrackMs float64
	started      bool // a TRACK arrived
}

// viewer is one closed-loop client: pick, dial, admit, play to BYE,
// verify every track, repeat.
type viewer struct {
	addr      string
	content   map[string][]byte
	trackSize int
	pick      *picker
	tr        *tracer
}

// play runs one session. A returned error is a failed output check (a
// corrupt, duplicated or missing track); a refused or broken session is
// reported in the session instead.
func (v *viewer) play(title string, id int64) (session, error) {
	var s session
	content := v.content[title]
	tracks := (len(content) + v.trackSize - 1) / v.trackSize
	s.owed = tracks
	root := v.tr.begin("viewer.session", id, noSpan)
	defer v.tr.end(root)

	t0 := time.Now()
	sp := v.tr.begin("netserve.Dial", id, root)
	c, err := netserve.Dial(v.addr, readTimeout)
	v.tr.end(sp)
	s.dialUs = us(time.Since(t0))
	if err != nil {
		return s, nil
	}
	defer c.Close()
	c.ReuseBuffers(true)
	t1 := time.Now()
	sp = v.tr.begin("netserve.Admit", id, root)
	ok, err := c.Admit(title)
	v.tr.end(sp)
	admitted := time.Now()
	s.admitUs = us(admitted.Sub(t1))
	if err != nil {
		return s, nil // refused or broken: the whole title stays owed
	}
	if ok.Tracks != tracks || ok.TrackSize != v.trackSize {
		return s, fmt.Errorf("%s: admitted %d tracks of %d bytes, want %d of %d", title, ok.Tracks, ok.TrackSize, tracks, v.trackSize)
	}
	cycle := time.Duration(ok.CycleNanos) / speedup
	arrivals := make([]time.Time, tracks)
	seen := make([]bool, tracks)
	var tFirst time.Time
	for {
		sp = v.tr.begin("netserve.Next", id, root)
		ev, err := c.Next()
		now := time.Now()
		v.tr.end(sp)
		if err != nil {
			return s, nil // a broken session: its missing tracks stay owed
		}
		switch {
		case ev.Bye != nil:
			s.finished = ev.Bye.Reason == "finished"
			if s.finished {
				for t, got := range seen {
					if !got {
						return s, fmt.Errorf("%s: session finished without track %d, delivered or hiccuped", title, t)
					}
				}
			}
			return s, nil
		case ev.Hiccup != nil:
			if err := markSeen(seen, ev.Hiccup.Track, title); err != nil {
				return s, err
			}
		case ev.Data != nil:
			if err := markSeen(seen, ev.Track, title); err != nil {
				return s, err
			}
			sp = v.tr.begin("trace.CheckTrack", id, root)
			err := trace.CheckTrack(content, ok.TrackSize, ev.Track, ev.Data)
			v.tr.end(sp)
			if err != nil {
				return s, fmt.Errorf("%s: %w", title, err)
			}
			if !s.started {
				s.started, tFirst = true, now
				s.startupMs = ms(now.Sub(t0))
				s.firstTrackMs = ms(now.Sub(admitted))
			}
			arrivals[ev.Track] = now
			slack := deadline(tFirst, cycle, ok.Burst, ev.Track).Sub(now)
			if slack >= 0 {
				s.onTime++
			}
			// The first track sets t_first, so its slack is T′ by
			// definition and carries no measurement.
			if now != tFirst {
				s.slackMs = append(s.slackMs, ms(slack))
			}
			if p := ev.Track - ok.Burst; p >= 0 && !arrivals[p].IsZero() {
				s.periodMs = append(s.periodMs, ms(now.Sub(arrivals[p])))
			}
			s.bytes += int64(len(ev.Data))
		}
	}
}

func markSeen(seen []bool, track int, title string) error {
	if track < 0 || track >= len(seen) {
		return fmt.Errorf("%s: track %d outside a title of %d tracks", title, track, len(seen))
	}
	if seen[track] {
		return fmt.Errorf("%s: track %d arrived twice", title, track)
	}
	seen[track] = true
	return nil
}

// pacedLayers is what the traced phase gathers per session beyond the
// spans.
type pacedLayers struct {
	firstMs []float64
	admitUs []float64
	dialUs  []float64
}

// playPhase runs the viewers until the deadline, each finishing the
// title it is playing.
func playPhase(addr string, content map[string][]byte, trackSize int, picks []*picker, tr *tracer, until time.Time, ph *phase, lay *pacedLayers, ids *int64) error {
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for i := range picks {
		v := &viewer{addr: addr, content: content, trackSize: trackSize, pick: picks[i], tr: tr}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				title := v.pick.next()
				mu.Lock()
				*ids++
				id := *ids
				failed := firstErr != nil
				mu.Unlock()
				if failed {
					return
				}
				s, err := v.play(title, id)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				ph.attempted++
				ph.owed += s.owed
				ph.onTime += s.onTime
				if s.finished {
					ph.finished++
				}
				ph.verifiedBytes += s.bytes
				ph.tracks += int(s.bytes) / trackSize
				ph.slackMs = append(ph.slackMs, s.slackMs...)
				ph.cycleMs = append(ph.cycleMs, s.periodMs...)
				if s.started {
					ph.startupMs = append(ph.startupMs, s.startupMs)
				}
				if lay != nil {
					lay.dialUs = append(lay.dialUs, s.dialUs)
					lay.admitUs = append(lay.admitUs, s.admitUs)
					if s.started {
						lay.firstMs = append(lay.firstMs, s.firstTrackMs)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// runPlayPaced is the play-paced workload: a default Streaming RAID
// node paced in wall time at the benchmark's speedup, and closed-loop
// viewers over loopback TCP.
func runPlayPaced(cfg runConfig) (*outcome, error) {
	out := newOutcome(cfg.trace)
	var n *node.Node
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if n != nil {
			if err := n.Close(); err != nil {
				return nil, err
			}
			n = nil
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		nn, err := node.Start(node.Config{Scheme: "sr", Clock: netserve.WallClock(speedup)})
		if err != nil {
			return nil, fmt.Errorf("node set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		n = nn
	}
	out.setupS = medianOf(setups)
	defer n.Close()

	titles := n.Titles()
	content := make(map[string][]byte, len(titles))
	for _, t := range titles {
		content[t] = workload.SyntheticContent(t, n.TitleSize())
	}
	srv := n.Server()
	trackSize := int(srv.Farm().Params().TrackSize)
	picks := make([]*picker, viewers)
	for i := range picks {
		picks[i] = newPicker(cfg.seed, i, titles)
	}

	debug.FreeOSMemory()
	halves := []bool{false}
	if cfg.trace {
		halves = []bool{false, true}
	}
	each := cfg.seconds / time.Duration(len(halves))
	var ids int64
	for _, traced := range halves {
		ph := &phase{label: "play-paced"}
		var tr *tracer
		var lay *pacedLayers
		var snap0 metrics.Snapshot
		if traced {
			tr, lay = out.tr, &pacedLayers{}
			snap0 = srv.MetricsSnapshot()
		}
		ph.begin()
		if err := playPhase(n.Addr(), content, trackSize, picks, tr, time.Now().Add(each), ph, lay, &ids); err != nil {
			return out.failed(err), nil
		}
		ph.finish(0)
		out.addPhase(ph, traced)
		if traced {
			out.pacedLayers(lay, ph, snap0, srv.MetricsSnapshot(), n)
		}
	}
	if err := n.Drain(readTimeout); err != nil {
		return out.failed(err), nil
	}
	if !n.NS().Drained() {
		return out.failed(errors.New("node not drained after the viewers left")), nil
	}
	if err := n.Close(); err != nil {
		return nil, err
	}
	// With the front end closed the engine is ours: rebuild on the idle
	// farm.
	plan := newFailurePlan(cfg.seed, 300, srv.Farm().Size())
	secs, cycles, err := idleRebuild("sr", srv, plan, out.tr, rebuildRounds)
	if err != nil {
		return out.failed(err), nil
	}
	out.rebuildS = medianOf(secs)
	out.layer("rebuild.cycles.sr", medianOf(cycles))
	return out, nil
}

// pacedLayers folds the traced phase of play-paced into the per-layer
// metrics: client-side spans and the front end's own instruments.
func (o *outcome) pacedLayers(lay *pacedLayers, ph *phase, a, b metrics.Snapshot, n *node.Node) {
	spans := o.tr.snapshot()
	o.layer("netserve.dial_us_p50", medianOf(lay.dialUs))
	admit := summarize(lay.admitUs)
	o.layer("netserve.admit_us_p50", admit.Median)
	o.layer("netserve.admit_us_tail", o.tail("netserve.admit_us_tail", admit))
	o.layer("netserve.first_track_ms_p50", medianOf(lay.firstMs))
	next := summarize(durations(spans, "netserve.Next", time.Microsecond))
	o.layer("netserve.next_us_p50", next.Median)
	o.layer("netserve.next_us_tail", o.tail("netserve.next_us_tail", next))
	period := medianOf(ph.cycleMs)
	o.layer("netserve.burst_period_ms_p50", period)
	o.layer("netserve.pacer_drift_pct", 100*(period/ms(n.NS().CycleTime()/speedup)-1))

	hq := func(name string, q float64) float64 {
		return float64(histDelta(a.Histograms[name], b.Histograms[name]).Quantile(q))
	}
	o.layer("netserve.pipe_read_us_p50", hq("pipe_read_us", 0.5))
	o.layer("netserve.pipe_read_us_p99", hq("pipe_read_us", 0.99))
	o.layer("netserve.pipe_stage_us_p50", hq("pipe_stage_us", 0.5))
	o.layer("netserve.pipe_flush_us_p50", hq("pipe_flush_us", 0.5))
	o.layer("netserve.pipe_flush_us_p99", hq("pipe_flush_us", 0.99))
	ov := histDelta(a.Histograms["pipe_overlap_pct"], b.Histograms["pipe_overlap_pct"])
	o.layer("netserve.pipe_overlap_pct_mean", ratio(float64(ov.Sum), float64(ov.Count)))
	sent := counterDelta(a, b, "net_tracks_sent")
	o.layer("netserve.tracks_sent", sent)
	o.layer("netserve.merged_frac", ratio(counterDelta(a, b, "net_merged_tracks"), sent))
	admits, rejects := counterDelta(a, b, "net_admits"), counterDelta(a, b, "net_rejects")
	o.layer("netserve.admit_ok_frac", ratio(admits, admits+rejects))
	o.layer("netserve.sessions_shed", counterDelta(a, b, "net_sessions_shed"))
	o.layer("netserve.write_failures", counterDelta(a, b, "net_write_timeouts")+counterDelta(a, b, "net_write_errors"))

	deliveries := counterDelta(a, b, "engine_deliveries")
	dataReads, parityReads := counterDelta(a, b, "engine_data_reads"), counterDelta(a, b, "engine_parity_reads")
	o.layer("schemes.reads_per_delivery.sr", ratio(dataReads+parityReads, deliveries))
	o.layer("schemes.parity_reads_per_delivery.sr", ratio(parityReads, deliveries))
	o.layer("schemes.reconstructions_per_cycle.sr", ratio(counterDelta(a, b, "engine_reconstructions"), counterDelta(a, b, "engine_cycles")))
	o.layer("schemes.hiccups", counterDelta(a, b, "engine_hiccups"))
	o.layer("buffer.in_use_tracks_peak", float64(b.Gauges["engine_buffer_in_use_tracks"].Max))
	srv := n.Server()
	o.diskModel("sr", srv.Farm().Params(), n.NS().Burst(), srv.Rate(), a, b)
}
