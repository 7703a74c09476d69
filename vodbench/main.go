// Command vodbench is the repository's end-to-end benchmark: it drives
// the shipping video-on-demand server through its public functions on
// one of three seeded workloads and prints what a viewer and an
// operator see — deadline slack, bit-exact goodput, rebuild time — or,
// traced, the same run split across the layers.
//
//	vodbench --workload play-paced|engine-full|engine-rebuild|all \
//	         --seed N --seconds S --trace 0|1
//
// Every delivered track is checked bit-exact against the title's
// synthetic content, every owed track must be delivered or reported as
// a hiccup, buffers must come back after each drain and parity must be
// consistent after every rebuild; a failed check prints the result with
// "correct": false and exits 1.
//
// Timings are reported as a median and a tail. The tail is the highest
// of p99 and p90 with at least ten samples beyond it (p1 and p10 for
// slack, where low is bad), or with fewer than 100 samples the sample
// with exactly ten beyond it; the report prints each tail's percentile
// and sample count. finish_frac is the share of attempted sessions or
// streams that played to the end; the result line's failed/attempted
// carries the same count as a failure share.
//
// The engine workloads summarise timings per scheme, then sum the five
// medians or tails (one cycle, startup or rebuild of each scheme in
// turn) and take slack from the scheme closest to its deadline.
//
// Definitions where a workload has no direct counterpart:
//   - slack: on play-paced, per track, deadline − arrival at the
//     viewer; on the engine workloads, per cycle, the paced cycle
//     budget CycleTime/speedup minus the Step's wall time.
//   - startup: on play-paced, from the start of Dial to the first
//     TRACK; on the engine workloads, from Request to the end of the
//     Step that delivers the stream's first track, counting only the
//     time spent in Request and Step calls (not the checking between
//     cycles).
//   - cycle_ms: on play-paced, per track, the time since the track one
//     burst (k′ tracks) earlier arrived; on the engine workloads, the
//     wall time of each Step.
//   - rebuild_s: on engine-rebuild, StartOnlineRebuild to
//     RebuildRemaining()==0 under full streaming load; on play-paced
//     and engine-full, the same on the drained, idle farm after the
//     measured phase, spending the surviving drives' whole track budget.
//
// With --workload all the workloads run in turn in one process, so
// mem_peak_MB of a later workload is the process's peak so far.
//
// A traced run (--trace 1) spends the first half of its time untraced
// and the second half traced, reports the per-layer metrics from the
// traced half and the tracing overhead as the difference in CPU per
// verified MB between the halves, and writes its spans, then per span
// name the count, total and self time, to
// .bench_build/vodbench-spans/<workload>.jsonl.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// workloads are the benchmark's workloads, in the order "all" runs them.
var workloads = []string{"play-paced", "engine-full", "engine-rebuild"}

func run(args []string) int {
	fs := flag.NewFlagSet("vodbench", flag.ContinueOnError)
	name := fs.String("workload", "", "play-paced, engine-full, engine-rebuild, or all to run each in turn")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "vodbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1}
	if *name != "all" {
		cfg.workload = *name
		return runOne(cfg)
	}
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w)
		cfg.workload = w
		code = max(code, runOne(cfg))
	}
	return code
}

// runOne runs one workload and prints its report; it returns the exit
// code: 0, 1 for a failed output check, 2 when the run could not be
// made.
func runOne(cfg runConfig) int {
	var out *outcome
	var err error
	switch cfg.workload {
	case "play-paced":
		out, err = runPlayPaced(cfg)
	case "engine-full":
		out, err = runEngine(cfg, false)
	case "engine-rebuild":
		out, err = runEngine(cfg, true)
	default:
		fmt.Fprintf(os.Stderr, "vodbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vodbench: %v\n", err)
		return 2
	}
	if out.traced {
		// One file per workload, overwritten by each traced run, so
		// repeated runs do not pile up span files in the checkout.
		path := filepath.Join(".bench_build", "vodbench-spans", cfg.workload+".jsonl")
		if err := writeSpans(path, out.tr.snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "vodbench: %v\n", err)
			return 2
		}
	}
	if err := out.report(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "vodbench: %v\n", err)
		return 2
	}
	if out.err != nil {
		return 1
	}
	return 0
}
