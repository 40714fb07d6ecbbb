package scc

import (
	"strings"
	"testing"

	"scc/internal/simtime"
	"scc/internal/timing"
)

// TestDeadlockReportGolden pins the rendered deadlock report. A parked
// core records nothing about its wait: the engine asks the armed step
// machine to name it (steps.String), and the last protocol step is a
// Note formatted only when a report renders. The report must still name
// the core, the flag offset and the expected value — exactly what a
// hang investigation needs.
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
		"waiting: core00 flag@7==1",    // the step machine: core, offset, expected value
		"last step: sent chunk 3 of 9", // deferred Note formatting
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock report missing %q:\n%s", want, msg)
		}
	}

	// A WaitFlagAny the engine parks: core 1's flush outlasts core 0's
	// probes, so core 1's stack pops core 0's probe wake-ups, runs the
	// rest of the wait and parks it there. Core 0 last blocked in a
	// sleep; the report must name the any-flag wait it is stuck in.
	chip = New(timing.Default())
	offs := []int{chip.MPBBase(0) + 5, chip.MPBBase(0) + 9}
	chip.LaunchOne(0, func(c *Core) { c.WaitFlagAny(offs, 1) })
	chip.LaunchOne(1, func(c *Core) {
		c.ComputeCycles(10000)
		c.Now()
	})
	err = chip.Run()
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	msg = err.Error()
	if want := "core00 (waiting: core00 any-flag (2 flags, first@5))"; !strings.Contains(msg, want) {
		t.Errorf("deadlock report missing %q:\n%s", want, msg)
	}
	if h, f := chip.Engine.SchedStats(); h != 2 {
		t.Errorf("the engine parked core 0 after %d switches (%d without), want 2: one to each core", h, f)
	}
}

// TestDeadlockReportNamesFarFlag: on a 100x100 mesh the last core's MPB
// flag sits past 2^31, and the report must print its offset unwrapped.
func TestDeadlockReportNamesFarFlag(t *testing.T) {
	chip := New(timing.Topology(100, 100, 1))
	defer chip.Release()
	off := chip.MPBBase(9999) + 7
	chip.LaunchOne(9999, func(c *Core) { c.WaitFlag(off, 1) })
	err := chip.Run()
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	if want := "core9999 (waiting: core9999 flag@3358384135==1)"; !strings.Contains(err.Error(), want) {
		t.Errorf("deadlock report missing %q:\n%v", want, err)
	}
}
