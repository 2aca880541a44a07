package main

import (
	"testing"

	"repro/internal/core"
)

// TestLegacyLazyTrackingStillReplays: traces recorded while the runtime
// had a lazy owned list carry "tracking=lazy" in their meta. The lazy
// list differed from the exact list only in what it retained, not in
// verdicts, so such a trace must still map to runtime options, and those
// must select the exact list.
func TestLegacyLazyTrackingStillReplays(t *testing.T) {
	for rec, want := range map[string]core.OwnedTracking{
		"":        core.TrackList,
		"list":    core.TrackList,
		"lazy":    core.TrackList,
		"counter": core.TrackCounter,
	} {
		opts, err := optionsFor("full", "lockfree", rec)
		if err != nil {
			t.Fatalf("optionsFor(tracking=%q): %v", rec, err)
		}
		rt := core.NewRuntime(opts...)
		if rt.Mode() != core.Full || rt.Tracking() != want {
			t.Errorf("tracking=%q replays as mode=%s tracking=%s, want full/%s", rec, rt.Mode(), rt.Tracking(), want)
		}
	}
	if _, err := optionsFor("full", "lockfree", "bogus"); err == nil {
		t.Error("unknown recorded tracking accepted")
	}
}
