package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, name string, f baselineFile) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGOMAXPROCS(t *testing.T) {
	row := func(allocs int64) []benchEntry {
		return []benchEntry{{Name: "NetserveLoopbackStream", NsPerOp: 1000, AllocsPerOp: allocs}}
	}
	one := writeBaseline(t, "one.json", baselineFile{GOMAXPROCS: 1, Benchmarks: row(1)})
	two := writeBaseline(t, "two.json", baselineFile{GOMAXPROCS: 2, Benchmarks: row(5)})
	legacy := writeBaseline(t, "legacy.json", baselineFile{Benchmarks: row(1)})
	regressed := writeBaseline(t, "regressed.json", baselineFile{GOMAXPROCS: 1, Benchmarks: row(50)})

	err := runCompare(one, two, true)
	if err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Errorf("GOMAXPROCS 1 vs 2: got %v, want a not-comparable error", err)
	}
	if err := runCompare(legacy, one, false); err != nil {
		t.Errorf("file without gomaxprocs vs same numbers: %v", err)
	}
	for _, old := range []string{one, legacy} {
		err := runCompare(old, regressed, true)
		if err == nil || !strings.Contains(err.Error(), "allocs/op regressed") {
			t.Errorf("%s vs 50 allocs/op: got %v, want an allocs regression", filepath.Base(old), err)
		}
	}
}
