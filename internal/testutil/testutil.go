// Package testutil provides helpers shared by the test suites: safe
// program execution with hang protection.
package testutil

import (
	"testing"
	"time"

	"repro/internal/core"
)

// Timeout is the hang-protection deadline used by Run.
const Timeout = 30 * time.Second

// Run executes main under rt, failing the test if the program does not
// terminate within Timeout (so a detector bug cannot wedge the test
// binary). It returns the program's report.
func Run(t *testing.T, rt *core.Runtime, main core.TaskFunc) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- rt.Run(main) }()
	select {
	case err := <-done:
		return err
	case <-time.After(Timeout):
		t.Fatalf("program did not terminate within %v", Timeout)
		return nil
	}
}

// MustSucceed runs main and fails the test on any error.
func MustSucceed(t *testing.T, rt *core.Runtime, main core.TaskFunc) {
	t.Helper()
	if err := Run(t, rt, main); err != nil {
		t.Fatalf("program failed: %v", err)
	}
}

// AllModes lists every runtime mode, for table-driven tests.
func AllModes() []core.Mode {
	return []core.Mode{core.Unverified, core.Ownership, core.Full}
}
