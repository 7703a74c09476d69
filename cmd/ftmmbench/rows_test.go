package main

import (
	"slices"
	"testing"

	"ftmm/internal/chaos"
)

// BenchmarkRows runs the -bench-baseline rows as Go benchmarks, one
// sub-benchmark per row, so `go test -bench Rows/NetserveFanout64`
// profiles or iterates on exactly the row the baseline file records.
func BenchmarkRows(b *testing.B) {
	for _, row := range baselineSpecs() {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			row.run(b)
		})
	}
}

func TestRowNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range baselineSpecs() {
		if seen[r.name] {
			t.Errorf("row %s defined twice", r.name)
		}
		seen[r.name] = true
	}
}

// TestRowsCoverCommittedBaseline fails when a row of the committed
// baseline disappears from the table. The word and register-blocked XOR
// kernels were deleted with their rows.
func TestRowsCoverCommittedBaseline(t *testing.T) {
	committed, err := readBaseline("../../BENCH_7.json")
	if err != nil || committed == nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	deleted := []string{"ParityXORIntoWord", "ParityXORIntoBlocked"}
	var names []string
	for _, r := range baselineSpecs() {
		names = append(names, r.name)
	}
	for _, e := range committed.Benchmarks {
		if !slices.Contains(deleted, e.Name) && !slices.Contains(names, e.Name) {
			t.Errorf("committed row %s is missing from the table", e.Name)
		}
	}
}

// TestSchemesFilter pins the -schemes filter: naming one scheme keeps
// every untagged row and exactly the rows tagged with that scheme.
func TestSchemesFilter(t *testing.T) {
	all := baselineSpecs()
	if got := selectRows(nil); len(got) != len(all) {
		t.Fatalf("empty filter kept %d of %d rows", len(got), len(all))
	}
	for _, s := range chaos.SchemeNames() {
		tag := s
		if s == "nc-simple" {
			tag = "nc"
		}
		var want, got []string
		for _, r := range all {
			if r.scheme == "" || r.scheme == tag {
				want = append(want, r.name)
			}
		}
		for _, r := range selectRows([]string{s}) {
			got = append(got, r.name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("-schemes %s kept %v, want %v", s, got, want)
		}
		if !slices.ContainsFunc(all, func(r baselineSpec) bool { return r.scheme == tag }) {
			t.Errorf("no row is tagged %s", tag)
		}
	}
}
