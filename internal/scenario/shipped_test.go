package scenario_test

import (
	"os"
	"path/filepath"
	"testing"

	"ftmm/internal/chaos"
	"ftmm/internal/scenario"
)

// TestShippedScenarios parses every scenario file under scenarios/ and
// replays it, exactly as `ftmmsim -scenario` does, under the full
// checker set: single-node and cluster files alike must hold every
// invariant, bit-exact delivery (the retention checker) included.
// sr-catastrophe-tape-recovery.json loses two drives of one SR cluster,
// the paper's catastrophe, so it replays without the continuity checker
// (the chaos corpus test pins that continuity stops it); every other
// invariant still holds on it.
func TestShippedScenarios(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no shipped scenarios found")
	}
	for _, path := range paths {
		name := filepath.Base(path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkers := chaos.DefaultCheckers
		if name == "sr-catastrophe-tape-recovery.json" {
			checkers = func() []chaos.Checker {
				var rest []chaos.Checker
				for _, c := range chaos.DefaultCheckers() {
					if c.Name() != "continuity" {
						rest = append(rest, c)
					}
				}
				return rest
			}
		}
		res, err := chaos.Run(chaos.RunConfig{Schedule: *chaos.FromSpec(spec), NewCheckers: checkers})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v := res.Violation; v != nil {
			t.Fatalf("%s: %s violation at cycle %d: %s", name, v.Checker, v.Cycle, v.Detail)
		}
	}
}
