package main

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

var testBaseline = []harness.Micro{
	{Name: "spawn", Mode: "full"},
	{Name: "spawn", Mode: "unverified"},
	{Name: "setget-traced", Mode: "full"},
}

func TestParseAllocCapsKnownNames(t *testing.T) {
	caps, err := parseAllocCaps(" spawn=4, setget-traced=1 ,", testBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 2 || caps["spawn"] != 4 || caps["setget-traced"] != 1 {
		t.Fatalf("caps = %v", caps)
	}
	if caps, err := parseAllocCaps("", testBaseline); err != nil || len(caps) != 0 {
		t.Fatalf("empty spec = %v, %v", caps, err)
	}
}

// TestParseAllocCapsUnknownName: a cap whose name matches no baseline
// micro row (a typo, or a retired row) is an error, not a silent no-op.
func TestParseAllocCapsUnknownName(t *testing.T) {
	for _, spec := range []string{"spwan=4", "spawn=4,setget-slab=1"} {
		_, err := parseAllocCaps(spec, testBaseline)
		if err == nil || !strings.Contains(err.Error(), "names no micro row") {
			t.Errorf("parseAllocCaps(%q) error = %v, want an unknown-name error", spec, err)
		}
	}
}
