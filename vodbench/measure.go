package main

import (
	"runtime"
	"syscall"
	"time"

	"ftmm/internal/metrics"
)

// speedup is the one fixed fast-forward of the benchmark: play-paced
// paces the node's cycles at CycleTime/speedup, and the engine
// workloads hold each Step to the same budget when they compute slack.
// At 10 a Streaming RAID cycle is 107 ms. The pacer's per-cycle
// lateness (engine time plus timer overshoot, under a millisecond on
// the machine the benchmark was tuned on) then adds up over a 20-cycle
// title to a visible share of a cycle, while one late cycle moves the
// lowest slack by only a few percent of it.
const speedup = 10

// setupRepeats is how many times a run builds its farm (the node, or
// each scheme's server); setup_s takes the median.
const setupRepeats = 3

// rebuildRounds is how many seeded failures the idle-farm rebuild that
// ends play-paced and engine-full runs; rebuild_s is their median. One
// idle rebuild takes milliseconds, so many are cheap.
const rebuildRounds = 15

// phase accumulates one measured stretch of a workload: what a user of
// the system sees, before it is reduced to end-to-end metrics.
type phase struct {
	label    string // the scheme, on the engine workloads
	start    time.Time
	wall     time.Duration // measured wall time, audits excluded
	cpu0     time.Duration
	cpu      time.Duration
	mem0     runtime.MemStats
	allocs   uint64
	bytesAll uint64
	gcs      uint32
	gcPause  time.Duration

	verifiedBytes int64
	tracks        int // verified deliveries
	owed, onTime  int
	attempted     int
	finished      int

	slackMs   []float64
	startupMs []float64
	cycleMs   []float64
}

func (p *phase) begin() {
	runtime.ReadMemStats(&p.mem0)
	p.cpu0 = cpuTime()
	p.start = time.Now()
}

// finish closes the phase; audit is time spent in benchmark-side
// correctness audits (parity checks) that the phase must not count.
func (p *phase) finish(audit time.Duration) {
	p.wall = time.Since(p.start) - audit
	p.cpu = cpuTime() - p.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.allocs = m.Mallocs - p.mem0.Mallocs
	p.bytesAll = m.TotalAlloc - p.mem0.TotalAlloc
	p.gcs = m.NumGC - p.mem0.NumGC
	p.gcPause = time.Duration(m.PauseTotalNs - p.mem0.PauseTotalNs)
}

func (p *phase) goodputMBps() float64 {
	return ratio(float64(p.verifiedBytes)/1e6, p.wall.Seconds())
}

func (p *phase) cpuMsPerMB() float64 {
	return ratio(float64(p.cpu)/float64(time.Millisecond), float64(p.verifiedBytes)/1e6)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// histDelta is the part of histogram b observed since snapshot a.
func histDelta(a, b metrics.HistogramValue) metrics.HistogramValue {
	d := metrics.HistogramValue{Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	for i, bk := range b.Buckets {
		if i < len(a.Buckets) {
			bk.Count -= a.Buckets[i].Count
		}
		d.Buckets = append(d.Buckets, bk)
	}
	return d
}

// counterDelta is counter name's growth between two snapshots.
func counterDelta(a, b metrics.Snapshot, name string) float64 {
	return float64(b.Counters[name] - a.Counters[name])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
