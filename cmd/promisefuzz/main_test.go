package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/randprog"
	"repro/internal/trace"
)

// TestLegacyLazyTrackingStillReplays: traces recorded by older runtimes
// carry "tracking=list" or "tracking=lazy" in their configuration meta
// record (a lazy list never removed discharged entries; both reached the
// exact list's verdicts). Such a trace, like one without the key, must
// still verify and replay to the same verdict.
func TestLegacyLazyTrackingStillReplays(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "recorded.trace")
	cfg := randprog.Config{Seed: 2021, Tasks: 20, Promises: 40, MaxAwaits: 3, AwaitProb: 0.8, Work: 10}
	extra, finish, err := startRecording(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(append([]core.Option{core.WithMode(core.Full)}, extra...)...)
	if err := rt.Run(randprog.Generate(cfg).Main()); err != nil {
		t.Fatal(err)
	}
	if msg := finish(rt, "clean"); msg != "" {
		t.Fatal(msg)
	}
	evs, err := trace.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, legacy := range []string{"", "list", "lazy"} {
		out := append([]trace.Event(nil), evs...)
		tagged := legacy == ""
		for i := range out {
			if out[i].Kind == trace.KindMeta && strings.HasPrefix(out[i].Detail, "mode=") && legacy != "" {
				out[i].Detail += " tracking=" + legacy
				tagged = true
			}
		}
		if !tagged {
			t.Fatal("recorded trace has no runtime configuration meta record")
		}
		path := filepath.Join(dir, "legacy-"+legacy+".trace")
		sink, err := trace.NewFileSink(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.WriteEvents(out); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if code := replay(path, false); code != 0 {
			t.Errorf("tracking=%q trace: replay exited %d, want 0", legacy, code)
		}
	}
}

// TestOptionsForNamesTheRecordedDetector: a replay runs the mode and
// detector its trace names, whatever DEADLOCK_DETECTOR says, and an
// empty field (a trace older than the field) means full and lockfree.
func TestOptionsForNamesTheRecordedDetector(t *testing.T) {
	t.Setenv("DEADLOCK_DETECTOR", "globallock")
	for _, c := range []struct {
		mode, detector string
		wantMode       core.Mode
		wantDetector   core.DetectorKind
	}{
		{"full", "lockfree", core.Full, core.DetectLockFree},
		{"", "", core.Full, core.DetectLockFree},
		{"ownership", "", core.Ownership, core.DetectLockFree},
		{"full", "globallock", core.Full, core.DetectGlobalLock},
	} {
		opts, err := optionsFor(c.mode, c.detector)
		if err != nil {
			t.Fatalf("optionsFor(%q, %q): %v", c.mode, c.detector, err)
		}
		rt := core.NewRuntime(opts...)
		if rt.Mode() != c.wantMode || rt.Detector() != c.wantDetector {
			t.Errorf("optionsFor(%q, %q) runs %v/%v, want %v/%v",
				c.mode, c.detector, rt.Mode(), rt.Detector(), c.wantMode, c.wantDetector)
		}
	}
	if _, err := optionsFor("Full", ""); err == nil || err.Error() != `unknown recorded mode "Full"` {
		t.Errorf("unknown mode: err = %v", err)
	}
	if _, err := optionsFor("full", "armus"); err == nil || err.Error() != `unknown recorded detector "armus"` {
		t.Errorf("unknown detector: err = %v", err)
	}
}
