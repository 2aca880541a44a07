package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
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

// TestAppendHistoryKeepsForeignRecords: a record benchtable did not write
// (a perfbench end-to-end record) survives an append with every field.
func TestAppendHistoryKeepsForeignRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.json")
	foreign := `[{"source":"perfbench","workloads":{"pool-closed":{"parent":{"full_geomean_s":8.3e-06}}}}]`
	if err := os.WriteFile(path, []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendHistory(path, historyEntry{Scale: "small", Micro: testBaseline}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hist []map[string]any
	if err := json.Unmarshal(raw, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || hist[0]["source"] != "perfbench" || hist[0]["workloads"] == nil || hist[1]["scale"] != "small" {
		t.Fatalf("history after append: %s", raw)
	}
}

// TestMeasureBestTakesMinimaIndependently: each micro keeps its fastest
// pass's ns/op with that pass's B/op, and the lowest allocs/op of any
// pass, even when the two minima come from different passes; rows stay
// in the first pass's order, and a failing pass fails the whole run.
func TestMeasureBestTakesMinimaIndependently(t *testing.T) {
	passes := [][]harness.Micro{
		{
			{Name: "spawn", Mode: "full", NsPerOp: 900, BPerOp: 300, AllocsPerOp: 5.02},
			{Name: "setget", Mode: "full", NsPerOp: 100, BPerOp: 64, AllocsPerOp: 1},
		},
		{
			{Name: "setget", Mode: "full", NsPerOp: 120, BPerOp: 70, AllocsPerOp: 1},
			{Name: "spawn", Mode: "full", NsPerOp: 700, BPerOp: 310, AllocsPerOp: 5.4},
		},
		{
			{Name: "spawn", Mode: "full", NsPerOp: 800, BPerOp: 290, AllocsPerOp: 5.01},
			{Name: "setget", Mode: "full", NsPerOp: 110, BPerOp: 60, AllocsPerOp: 0.99},
		},
	}
	calls := 0
	measure := func() ([]harness.Micro, error) {
		calls++
		return passes[calls-1], nil
	}
	got, err := measureBest(len(passes), measure)
	if err != nil {
		t.Fatal(err)
	}
	want := []harness.Micro{
		{Name: "spawn", Mode: "full", NsPerOp: 700, BPerOp: 310, AllocsPerOp: 5.01},
		{Name: "setget", Mode: "full", NsPerOp: 100, BPerOp: 64, AllocsPerOp: 0.99},
	}
	if calls != len(passes) || len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("%d passes merged to %+v, want %+v", calls, got, want)
	}

	calls = 0
	if got, err := measureBest(0, measure); err != nil || calls != 1 || len(got) != 2 {
		t.Fatalf("reps 0: %d passes, %v, %v; want one pass", calls, got, err)
	}
	boom := errors.New("boom")
	if _, err := measureBest(3, func() ([]harness.Micro, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failing pass: err = %v, want %v", err, boom)
	}
}
