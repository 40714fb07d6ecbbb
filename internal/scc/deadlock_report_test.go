package scc

import (
	"strings"
	"testing"

	"scc/internal/simtime"
	"scc/internal/timing"
)

// TestDeadlockReportGolden pins the rendered deadlock report. Blocked-wait
// diagnostics are recorded as compact WaitSite/Note values and only
// formatted when a deadlock report renders; this golden test is the
// invariant that the lazy path still names the core, the flag offset, and
// the expected value — exactly what a hang investigation needs.
func TestDeadlockReportGolden(t *testing.T) {
	chip := New(timing.Default())
	off := chip.MPBBase(0) + 7
	chip.LaunchOne(0, func(c *Core) {
		c.Note(simtime.Note2("sent chunk %d of %d", 3, 9))
		c.WaitFlag(off, 1) // never satisfied: deadlock
	})
	err := chip.Run()
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	msg := err.Error()
	for _, want := range []string{
		"deadlock",
		"core00",                       // stuck process name
		"waiting: core00 flag@7==1",    // WaitSite: core, offset, expected value
		"last step: sent chunk 3 of 9", // deferred Note formatting
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock report missing %q:\n%s", want, msg)
		}
	}
}
