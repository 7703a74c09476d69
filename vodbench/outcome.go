package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"ftmm/internal/diskmodel"
	"ftmm/internal/metrics"
	"ftmm/internal/units"
)

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a viewer or operator of the server sees;
// every workload reports all of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"goodput_MBps", "MB/s", "higher"},
	{"ontime_frac", "frac", "higher"},
	{"finish_frac", "frac", "higher"},
	{"cpu_ms_per_MB", "ms/MB", "lower"},
	{"mem_peak_MB", "MB", "lower"},
	{"slack_p50_ms", "ms", "higher"},
	{"slack_low_ms", "ms", "higher"},
	{"startup_p50_ms", "ms", "lower"},
	{"startup_tail_ms", "ms", "lower"},
	{"cycle_ms_p50", "ms", "lower"},
	{"cycle_ms_tail", "ms", "lower"},
	{"rebuild_s", "s", "lower"},
}

var schemeNames = func() []string {
	var names []string
	for _, sc := range engineSchemes {
		names = append(names, sc.name)
	}
	return names
}()

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"netserve.dial_us_p50", "us", "lower"},
		{"netserve.admit_us_p50", "us", "lower"},
		{"netserve.admit_us_tail", "us", "lower"},
		{"netserve.first_track_ms_p50", "ms", "lower"},
		{"netserve.next_us_p50", "us", "lower"},
		{"netserve.next_us_tail", "us", "lower"},
		{"netserve.burst_period_ms_p50", "ms", "lower"},
		{"netserve.pacer_drift_pct", "%", "lower"},
		{"netserve.pipe_read_us_p50", "us", "lower"},
		{"netserve.pipe_read_us_p99", "us", "lower"},
		{"netserve.pipe_stage_us_p50", "us", "lower"},
		{"netserve.pipe_flush_us_p50", "us", "lower"},
		{"netserve.pipe_flush_us_p99", "us", "lower"},
		{"netserve.pipe_overlap_pct_mean", "%", "higher"},
		{"netserve.tracks_sent", "count", "higher"},
		{"netserve.merged_frac", "frac", "higher"},
		{"netserve.admit_ok_frac", "frac", "higher"},
		{"netserve.sessions_shed", "count", "lower"},
		{"netserve.write_failures", "count", "lower"},
	}
	perScheme := func(prefix, unit, better string) {
		for _, s := range schemeNames {
			defs = append(defs, metricDef{prefix + "." + s, unit, better})
		}
	}
	perScheme("server.step_us_p50", "us", "lower")
	perScheme("server.step_us_tail", "us", "lower")
	perScheme("server.streams_mean", "count", "higher")
	defs = append(defs,
		metricDef{"server.request_us_p50", "us", "lower"},
		metricDef{"server.refused_frac", "frac", "lower"},
	)
	perScheme("schemes.reads_per_delivery", "ratio", "lower")
	perScheme("schemes.parity_reads_per_delivery", "ratio", "lower")
	perScheme("schemes.reconstructions_per_cycle", "count", "lower")
	defs = append(defs, metricDef{"schemes.hiccups", "count", "lower"})
	perScheme("rebuild.cycles", "count", "lower")
	perScheme("rebuild.step_us_p50", "us", "lower")
	defs = append(defs, metricDef{"buffer.in_use_tracks_peak", "count", "lower"})
	perScheme("diskmodel.tcyc_ms", "ms", "lower")
	perScheme("diskmodel.tr_ms", "ms", "lower")
	defs = append(defs,
		metricDef{"trace.check_us_p50", "us", "lower"},
		metricDef{"trace.check_share", "frac", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
		metricDef{"runtime.allocs_per_track", "count", "lower"},
		metricDef{"runtime.alloc_bytes_per_track", "B", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_pause_ms", "ms", "lower"},
	)
	return defs
}()

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// outcome is everything a run measured, before it is printed.
type outcome struct {
	traced bool
	tr     *tracer
	err    error // a failed output check

	untraced, tracedPh []*phase
	setupS, rebuildS   float64

	layers map[string]float64
	tails  map[string]summary // reported tails, for their percentile and count

	// engine workloads, pooled over the schemes' traced phases
	requests, refused int
	checkUs           []float64
	verify            time.Duration
	hiccups           float64
	bufPeak           float64
}

func newOutcome(traced bool) *outcome {
	o := &outcome{traced: traced, layers: make(map[string]float64), tails: make(map[string]summary)}
	if traced {
		o.tr = newTracer()
	}
	return o
}

// failed records a failed output check; the run still reports.
func (o *outcome) failed(err error) *outcome {
	o.err = err
	return o
}

func (o *outcome) layer(name string, v float64) { o.layers[name] = v }

func (o *outcome) addPhase(p *phase, traced bool) {
	if traced {
		o.tracedPh = append(o.tracedPh, p)
	} else {
		o.untraced = append(o.untraced, p)
	}
}

// engineLayers folds one scheme's traced phase into the per-layer
// metrics: instrument deltas from the server's own registry, and the
// analytic disk model next to what was measured.
func (o *outcome) engineLayers(r *engineRun) {
	s := r.sc.name
	lay := r.lay
	a, b := lay.snap0, r.srv.MetricsSnapshot()
	deliveries := counterDelta(a, b, "engine_deliveries")
	dataReads := counterDelta(a, b, "engine_data_reads")
	parityReads := counterDelta(a, b, "engine_parity_reads")
	o.layer("schemes.reads_per_delivery."+s, ratio(dataReads+parityReads, deliveries))
	o.layer("schemes.parity_reads_per_delivery."+s, ratio(parityReads, deliveries))
	o.layer("schemes.reconstructions_per_cycle."+s, ratio(counterDelta(a, b, "engine_reconstructions"), counterDelta(a, b, "engine_cycles")))
	o.hiccups += counterDelta(a, b, "engine_hiccups")
	o.bufPeak = math.Max(o.bufPeak, float64(b.Gauges["engine_buffer_in_use_tracks"].Max))
	o.layer("server.streams_mean."+s, mean(lay.active))
	o.diskModel(s, r.srv.Farm().Params(), r.kp, r.srv.Rate(), a, b)
	o.requests += lay.requests
	o.refused += lay.refused
	o.checkUs = append(o.checkUs, lay.checkUs...)
	o.verify += lay.verify
}

// diskModel reports the paper's cycle time Tcyc(k′) and read time T(r)
// for a scheme, r being the mean per-disk reads per cycle measured
// between snapshots a and b, rounded up to whole tracks.
func (o *outcome) diskModel(s string, p diskmodel.Params, kp int, rate units.Rate, a, b metrics.Snapshot) {
	o.layer("diskmodel.tcyc_ms."+s, ms(p.CycleTime(kp, rate)))
	slots := histDelta(a.Histograms["engine_slots_used_per_disk"], b.Histograms["engine_slots_used_per_disk"])
	r := int(math.Ceil(ratio(float64(slots.Sum), float64(slots.Count))))
	o.layer("diskmodel.tr_ms."+s, ms(p.ReadTime(r)))
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// total sums phases into one.
func total(ps []*phase) *phase {
	t := &phase{}
	for _, p := range ps {
		t.wall += p.wall
		t.cpu += p.cpu
		t.allocs += p.allocs
		t.bytesAll += p.bytesAll
		t.gcs += p.gcs
		t.gcPause += p.gcPause
		t.verifiedBytes += p.verifiedBytes
		t.tracks += p.tracks
		t.owed += p.owed
		t.onTime += p.onTime
		t.attempted += p.attempted
		t.finished += p.finished
		t.slackMs = append(t.slackMs, p.slackMs...)
		t.startupMs = append(t.startupMs, p.startupMs...)
		t.cycleMs = append(t.cycleMs, p.cycleMs...)
	}
	return t
}

// tail records a summary's tail under name and returns the tail value.
func (o *outcome) tail(name string, s summary) float64 {
	o.tails[name] = s
	return s.Tail
}

// endToEndMetrics reduces the untraced phases. Timings are summarised
// per phase: play-paced has one, the engine workloads one per scheme.
// Over schemes, startup and cycle medians and tails are summed (one
// cycle of each scheme in turn, like rebuild_s), and slack takes the
// scheme closest to its deadline; pooling the samples instead would
// make the figures depend on how many cycles each scheme happened to
// run.
func (o *outcome) endToEndMetrics() map[string]float64 {
	t := total(o.untraced)
	m := map[string]float64{
		"setup_s":       o.setupS,
		"goodput_MBps":  t.goodputMBps(),
		"ontime_frac":   ratio(float64(t.onTime), float64(t.owed)),
		"finish_frac":   ratio(float64(t.finished), float64(t.attempted)),
		"cpu_ms_per_MB": t.cpuMsPerMB(),
		"mem_peak_MB":   peakRSSMB(),
		"rebuild_s":     o.rebuildS,
	}
	for i, p := range o.untraced {
		slack := summarizeLow(p.slackMs)
		startup := summarize(p.startupMs)
		cyc := summarize(p.cycleMs)
		o.tails["slack_low_ms/"+p.label] = slack
		o.tails["startup_tail_ms/"+p.label] = startup
		o.tails["cycle_ms_tail/"+p.label] = cyc
		if i == 0 || slack.Median < m["slack_p50_ms"] {
			m["slack_p50_ms"] = slack.Median
		}
		if i == 0 || slack.Tail < m["slack_low_ms"] {
			m["slack_low_ms"] = slack.Tail
		}
		m["startup_p50_ms"] += startup.Median
		m["startup_tail_ms"] += startup.Tail
		m["cycle_ms_p50"] += cyc.Median
		m["cycle_ms_tail"] += cyc.Tail
	}
	return m
}

// layerMetrics completes the per-layer metrics from the spans and the
// phases: spans give the per-call timings, the untraced halves give the
// runtime's allocation figures (the tracer allocates), and the two
// halves together give the tracing overhead.
func (o *outcome) layerMetrics() map[string]float64 {
	spans := o.tr.snapshot()
	for _, s := range schemeNames {
		steps := append(durations(spans, "server.Step/"+s, time.Microsecond), durations(spans, "server.Step/"+s+"/rebuilding", time.Microsecond)...)
		if len(steps) > 0 {
			st := summarize(steps)
			o.layer("server.step_us_p50."+s, st.Median)
			o.layer("server.step_us_tail."+s, o.tail("server.step_us_tail."+s, st))
		}
		rb := durations(spans, "server.Step/"+s+"/rebuilding", time.Microsecond)
		if len(rb) == 0 {
			rb = durations(spans, "server.Step/"+s+"/idle-rebuild", time.Microsecond)
		}
		if len(rb) > 0 {
			o.layer("rebuild.step_us_p50."+s, medianOf(rb))
		}
	}
	if req := durationsWithPrefix(spans, "server.Request/", time.Microsecond); len(req) > 0 {
		o.layer("server.request_us_p50", medianOf(req))
		o.layer("server.refused_frac", ratio(float64(o.refused), float64(o.requests)))
		o.layer("schemes.hiccups", o.hiccups)
		o.layer("buffer.in_use_tracks_peak", o.bufPeak)
	}
	traced := total(o.tracedPh)
	if checks := durations(spans, "trace.CheckTrack", time.Microsecond); len(checks) > 0 {
		o.checkUs = checks
		for _, c := range checks {
			o.verify += time.Duration(c * float64(time.Microsecond))
		}
	}
	o.layer("trace.check_us_p50", medianOf(o.checkUs))
	o.layer("trace.check_share", ratio(o.verify.Seconds(), traced.wall.Seconds()))
	base := total(o.untraced)
	o.layer("trace.overhead_pct", 100*(ratio(traced.cpuMsPerMB(), base.cpuMsPerMB())-1))
	o.layer("runtime.allocs_per_track", ratio(float64(base.allocs), float64(base.tracks)))
	o.layer("runtime.alloc_bytes_per_track", ratio(float64(base.bytesAll), float64(base.tracks)))
	o.layer("runtime.gc_cycles", float64(base.gcs))
	o.layer("runtime.gc_pause_ms", ms(base.gcPause))
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = o.layers[d.Name]
	}
	return out
}

// durationsWithPrefix returns the durations of every span whose name
// starts with prefix.
func durationsWithPrefix(spans []span, prefix string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// metric is one value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints every metric by name with its unit (tails with their
// percentile and sample count), then the result line.
func (o *outcome) report(w io.Writer) error {
	defs, values := endToEnd, o.endToEndMetrics
	if o.traced {
		defs, values = perLayer, o.layerMetrics
	}
	all := total(append(append([]*phase(nil), o.untraced...), o.tracedPh...))
	res := result{
		Correct:   o.err == nil,
		Attempted: all.attempted,
		Failed:    all.attempted - all.finished,
		Metrics:   make(map[string]metric, len(defs)),
	}
	if o.err != nil {
		fmt.Fprintf(w, "output check failed: %v\n", o.err)
	}
	vals := values()
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no NaN; a degenerate ratio reads as nothing measured
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-40s %14.6g %s\n", d.Name, v, d.Unit)
		for _, p := range o.untraced {
			if t, ok := o.tails[d.Name+"/"+p.label]; ok {
				fmt.Fprintf(w, "  %-38s median %.6g, tail %.6g at p%.2f of %d samples\n", p.label, t.Median, t.Tail, t.Percentile, t.N)
			}
		}
		if t, ok := o.tails[d.Name]; ok {
			fmt.Fprintf(w, "  tail at p%.2f of %d samples\n", t.Percentile, t.N)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
