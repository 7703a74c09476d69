// Bench-compare mode: -bench-compare old.json new.json diffs two
// -bench-baseline files and fails on regressions, so CI can hold the
// committed baseline against a fresh run.
package main

import (
	"fmt"
	"os"
)

// Regression thresholds. ns/op is machine-dependent, so it gets a wide
// 20% band (and can be demoted to a warning for cross-machine CI
// compares); allocs/op is deterministic for the same code at the same
// GOMAXPROCS, modulo sync.Pool refills after GC, so it gets only a
// small noise allowance.
const (
	compareNsTolerance = 0.20
	// compareAllocSlack absorbs pool-refill jitter: a run may see a few
	// extra allocations when GC clears sync.Pools mid-benchmark.
	compareAllocSlack = 2
)

// runCompare diffs newPath against oldPath (both -bench-baseline
// output). It returns an error — non-zero exit — when the files record
// different GOMAXPROCS (the engine spawns per-cycle goroutines, so
// allocs/op is not comparable across settings), when any benchmark's
// allocs/op regresses beyond the noise slack, or when ns/op regresses
// >20% and warnNs is false. A file without the field is compared as is.
func runCompare(oldPath, newPath string, warnNS bool) error {
	oldF, err := readBaseline(oldPath)
	if err != nil {
		return err
	}
	if oldF == nil {
		return fmt.Errorf("%s: baseline not found", oldPath)
	}
	newF, err := readBaseline(newPath)
	if err != nil {
		return err
	}
	if newF == nil {
		return fmt.Errorf("%s: baseline not found", newPath)
	}
	if oldF.GOMAXPROCS != 0 && newF.GOMAXPROCS != 0 && oldF.GOMAXPROCS != newF.GOMAXPROCS {
		return fmt.Errorf("not comparable: %s was recorded at GOMAXPROCS=%d, %s at GOMAXPROCS=%d; re-run with the same setting",
			oldPath, oldF.GOMAXPROCS, newPath, newF.GOMAXPROCS)
	}

	oldByName := map[string]benchEntry{}
	for _, e := range oldF.Benchmarks {
		oldByName[e.Name] = e
	}

	var nsRegressed, allocRegressed []string
	seen := map[string]bool{}
	for _, n := range newF.Benchmarks {
		seen[n.Name] = true
		o, ok := oldByName[n.Name]
		if !ok {
			fmt.Printf("%-28s (new benchmark, no baseline)\n", n.Name)
			continue
		}
		nsDelta := 0.0
		if o.NsPerOp > 0 {
			nsDelta = (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		}
		allocDelta := n.AllocsPerOp - o.AllocsPerOp
		status := "ok"
		if allocDelta > compareAllocSlack+o.AllocsPerOp/10 {
			status = "ALLOC REGRESSION"
			allocRegressed = append(allocRegressed, n.Name)
		} else if nsDelta > compareNsTolerance {
			if warnNS {
				status = "ns/op regression (warning)"
			} else {
				status = "NS REGRESSION"
			}
			nsRegressed = append(nsRegressed, n.Name)
		}
		fmt.Printf("%-28s ns/op %12.0f -> %12.0f (%+6.1f%%)   allocs/op %6d -> %6d (%+d)   %s\n",
			n.Name, o.NsPerOp, n.NsPerOp, 100*nsDelta, o.AllocsPerOp, n.AllocsPerOp, allocDelta, status)
	}
	for _, o := range oldF.Benchmarks {
		if !seen[o.Name] {
			fmt.Fprintf(os.Stderr, "ftmmbench: warning: %s present in %s but missing from %s\n", o.Name, oldPath, newPath)
		}
	}

	if len(allocRegressed) > 0 {
		return fmt.Errorf("allocs/op regressed: %v", allocRegressed)
	}
	if len(nsRegressed) > 0 {
		if warnNS {
			fmt.Fprintf(os.Stderr, "ftmmbench: warning: ns/op regressed >%.0f%% (tolerated): %v\n", 100*compareNsTolerance, nsRegressed)
			return nil
		}
		return fmt.Errorf("ns/op regressed >%.0f%%: %v", 100*compareNsTolerance, nsRegressed)
	}
	return nil
}
