package scenario

import (
	"strings"
	"testing"
)

const validJSON = `{
  "scheme": "nc",
  "disks": 10,
  "cluster_size": 5,
  "k": 2,
  "titles": 4,
  "title_groups": 8,
  "requests": [
    {"cycle": 0, "title": "title0"},
    {"cycle": 1, "title": "title1"},
    {"cycle": 2, "title": "title2"}
  ],
  "failures": [
    {"cycle": 6, "drive": 2, "repair_cycle": 20}
  ]
}`

func TestParseValid(t *testing.T) {
	s, err := Parse([]byte(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheme != "nc" || s.Disks != 10 || len(s.Requests) != 3 || len(s.Failures) != 1 {
		t.Fatalf("parsed = %+v", s)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	bad := strings.Replace(validJSON, `"k": 2,`, `"k": 2, "tyop": 1,`, 1)
	if _, err := Parse([]byte(bad)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	cases := []struct{ name, from, to string }{
		{"bad scheme", `"scheme": "nc"`, `"scheme": "zz"`},
		{"bad farm", `"disks": 10`, `"disks": 3`},
		{"no titles", `"titles": 4`, `"titles": 0`},
		{"bad drive", `"drive": 2`, `"drive": 99`},
		{"repair before failure", `"repair_cycle": 20`, `"repair_cycle": 5`},
		{"negative request cycle", `{"cycle": 0, "title": "title0"}`, `{"cycle": -1, "title": "title0"}`},
		{"empty title", `"title": "title1"`, `"title": ""`},
		{"negative k", `"k": 2`, `"k": -1`},
		{"partial cluster", `"disks": 10`, `"disks": 11`},
		{"partial declustering group", `"scheme": "nc"`, `"scheme": "dc", "decluster_group": 7`},
		{"rebuild budget below C-1", `"repair_cycle": 20}`, `"repair_cycle": 20, "rebuild_budget": 1}`},
		{"negative max_cycles", `"k": 2,`, `"k": 2, "max_cycles": -5,`},
	}
	for _, c := range cases {
		bad := strings.Replace(validJSON, c.from, c.to, 1)
		if bad == validJSON {
			t.Fatalf("%s: replacement did not apply", c.name)
		}
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := Parse([]byte(`{`)); err == nil {
		t.Error("truncated JSON accepted")
	}
	empty := strings.Replace(validJSON, `{"cycle": 0, "title": "title0"},
    {"cycle": 1, "title": "title1"},
    {"cycle": 2, "title": "title2"}`, ``, 1)
	if _, err := Parse([]byte(empty)); err == nil {
		t.Error("no requests accepted")
	}
}
