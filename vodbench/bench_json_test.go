package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesReportedMetrics pins BENCHMARK.json at the
// repository root to the metrics the program reports, name for name.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program reports %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("workloads %+v, want %v", spec.Workloads, workloads)
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w {
			t.Errorf("workload %d is %q, want %q", i, spec.Workloads[i].Name, w)
		}
	}
}
