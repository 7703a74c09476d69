// Command ftmmbench regenerates every table and figure from the paper's
// evaluation (Tables 2-3, Figure 9(a)/(b), the §2 k-sweep, the inline
// MTTF examples), the behavioural figures (4, 5-8), and this
// reproduction's validation and extension experiments.
//
// Usage:
//
//	ftmmbench [flags] [experiment]
//
// Run `ftmmbench -list` for the experiment names; the default runs all.
// -workers N fans independent experiments out across N goroutines
// (results print in registry order regardless); -json emits
// machine-readable results (metric values plus wall-clock) instead of
// the rendered tables.
//
// -bench-baseline <path> instead runs the data-path benchmark rows
// (one scheduling cycle per scheme, the netserve delivery paths, and the
// parity substrate) and writes ns/op, allocs/op, stream counts and
// GOMAXPROCS to a BENCH_*.json file; numbers already in the file are
// preserved as pre_change for before/after comparison (see BENCH_0.json).
// `go test -bench Rows ./cmd/ftmmbench` runs the same rows as Go
// benchmarks. -bench-compare old.json new.json diffs two such files and
// exits non-zero on regressions (allocs/op always; ns/op unless
// -compare-warn-ns), or when they were recorded at different GOMAXPROCS.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ftmm/internal/chaos"
	"ftmm/internal/experiments"
)

var (
	trials  = flag.Int("trials", 1000, "Monte-Carlo trials for the stochastic experiments")
	streams = flag.Float64("streams", 1200, "required streams for the sizing experiment")
	list    = flag.Bool("list", false, "list experiments and exit")
	workers = flag.Int("workers", 1, "experiments run concurrently (0 = GOMAXPROCS)")
	jsonOut = flag.Bool("json", false, "emit machine-readable JSON results")

	benchBaseline = flag.String("bench-baseline", "",
		"run the data-path benchmark suite and write ns/op, allocs/op, and stream counts to this JSON file (existing numbers are kept as pre_change)")
	benchSchemes = flag.String("schemes", "",
		"with -bench-baseline, comma-separated scheme filter for the scheme-cycle rows and capacity section (default: all)")
	benchCompare = flag.Bool("bench-compare", false,
		"diff two -bench-baseline files (args: old.json new.json); exit non-zero on >20% ns/op or any allocs/op regression beyond pool-refill noise, or on a GOMAXPROCS mismatch")
	compareWarnNS = flag.Bool("compare-warn-ns", false,
		"with -bench-compare, demote ns/op regressions to warnings (allocs/op still hard-fails) — for CI runners whose speed differs from the committed baseline's machine")

	cpuProfile = flag.String("cpuprofile", "",
		"write a CPU profile to this file (see DESIGN.md for the fan-out profiling recipe)")
	mutexProfile = flag.String("mutexprofile", "",
		"write a mutex-contention profile to this file (samples 1 in 5 contended lock events)")
	blockProfile = flag.String("blockprofile", "",
		"write a goroutine-blocking profile to this file (10 µs sampling granularity)")
)

// parseSchemesFlag splits and validates the -schemes filter against the
// canonical scheme-name list; unknown names are a usage error.
func parseSchemesFlag(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	valid := make(map[string]bool)
	for _, n := range chaos.SchemeNames() {
		valid[n] = true
	}
	names := strings.Split(s, ",")
	for _, n := range names {
		if !valid[n] {
			return nil, fmt.Errorf("unknown scheme %q in -schemes (valid: %s)",
				n, strings.Join(chaos.SchemeNames(), ", "))
		}
	}
	return names, nil
}

// jsonResult is the -json wire shape for one experiment.
type jsonResult struct {
	Name        string             `json:"name"`
	Description string             `json:"description"`
	WallMillis  float64            `json:"wall_ms"`
	Values      map[string]float64 `json:"values,omitempty"`
	Error       string             `json:"error,omitempty"`
}

func main() {
	flag.Usage = usage
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *mutexProfile, *blockProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftmmbench: %v\n", err)
		os.Exit(1)
	}
	code := run()
	stopProfiles()
	os.Exit(code)
}

// run is the real main body. It returns an exit code instead of calling
// os.Exit so the deferred profile writers in main always flush.
func run() int {
	only, err := parseSchemesFlag(*benchSchemes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftmmbench: %v\n", err)
		return 2
	}

	if *benchBaseline != "" {
		if err := runBaseline(*benchBaseline, only); err != nil {
			fmt.Fprintf(os.Stderr, "ftmmbench: %v\n", err)
			return 1
		}
		return 0
	}

	if *benchCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "ftmmbench: -bench-compare needs exactly two arguments: old.json new.json")
			return 2
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *compareWarnNS); err != nil {
			fmt.Fprintf(os.Stderr, "ftmmbench: %v\n", err)
			return 1
		}
		return 0
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.Name, e.Description)
		}
		return 0
	}

	opts := experiments.Options{Trials: *trials, RequiredStreams: *streams}
	want := "all"
	if flag.NArg() > 0 {
		want = flag.Arg(0)
	}

	var results []experiments.Result
	if want == "all" {
		results = experiments.RunAll(opts, *workers)
	} else {
		e, err := experiments.Find(want)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftmmbench: %v\n\n", err)
			usage()
			return 2
		}
		results = []experiments.Result{experiments.Run(e, opts)}
	}

	if *jsonOut {
		return emitJSON(results)
	}
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "ftmmbench: %s: %v\n", r.Name, r.Err)
			return 1
		}
		fmt.Printf("== %s — %s\n\n%s\n", r.Name, r.Description, r.Output.Text)
	}
	return 0
}

// startProfiles turns on the requested runtime profiles and returns the
// function that flushes them; every exit path must route through it (via
// run's return code) rather than calling os.Exit deeper down, or the
// files come out empty.
func startProfiles(cpu, mutex, block string) (func(), error) {
	var flush []func() error
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		flush = append(flush, func() error { pprof.StopCPUProfile(); return f.Close() })
	}
	if mutex != "" {
		runtime.SetMutexProfileFraction(5)
		flush = append(flush, writeProfile("mutex", mutex))
	}
	if block != "" {
		runtime.SetBlockProfileRate(10_000)
		flush = append(flush, writeProfile("block", block))
	}
	return func() {
		for _, fn := range flush {
			if err := fn(); err != nil {
				fmt.Fprintf(os.Stderr, "ftmmbench: profile: %v\n", err)
			}
		}
	}, nil
}

// writeProfile defers a named runtime profile's snapshot to exit time.
func writeProfile(name, path string) func() error {
	return func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

// emitJSON prints one JSON array with every result; experiment failures
// are reported in-band and reflected in the exit status.
func emitJSON(results []experiments.Result) int {
	out := make([]jsonResult, 0, len(results))
	failed := false
	for _, r := range results {
		jr := jsonResult{
			Name:        r.Name,
			Description: r.Description,
			WallMillis:  float64(r.Wall.Microseconds()) / 1000,
			Values:      r.Output.Values,
		}
		if r.Err != nil {
			jr.Error = r.Err.Error()
			failed = true
		}
		out = append(out, jr)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "ftmmbench: %v\n", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: ftmmbench [flags] [experiment]

Run -list for experiment names; default runs all.
Run -bench-baseline BENCH_N.json for the performance baseline rows
(the same rows as go test -bench Rows ./cmd/ftmmbench).
Run -bench-compare [-compare-warn-ns] old.json new.json to diff two
baseline files (fails on regressions, and on files recorded at
different GOMAXPROCS).

Flags:
`)
	flag.PrintDefaults()
}
