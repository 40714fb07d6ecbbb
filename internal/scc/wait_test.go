package scc

import (
	"errors"
	"slices"
	"testing"

	"scc/internal/metrics"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// bulkWakeTicks parks cores 4, 5 and 14 — in that order — on bytes 0, 1
// and 2 of one flag line in core 0's MPB, lets core 40 overwrite the line
// with a single MPBWrite, and returns the tick at which each waiter
// finishes its next remote access, a four-line read of core 0's MPB. All
// three are two hops from core 0 and leave it over the same link, so they
// re-probe and read at the same instants and the order in which the write
// woke them decides who queues behind whom. The links are narrowed to one
// byte per cycle: at the SCC's 16 a line occupies a link for 2 of the
// ~80 mesh cycles a remote read takes and three readers never queue long
// enough to show.
// WaitFlagAny is the list wait with want accepted on every flag, the
// form the tests write; it returns the index of the first match.
func (c *Core) WaitFlagAny(offs []int, want byte) int {
	flags := make([]Flag, len(offs))
	for i, off := range offs {
		flags[i] = Watch(off, want, want)
	}
	i, _, _ := c.WaitFlagsMatch(flags, 0)
	return i
}

func bulkWakeTicks(t *testing.T) [3]int64 {
	t.Helper()
	model := timing.Default()
	model.MeshLinkBytesPerCycle = 1
	chip := New(model)
	line := chip.MPBBase(0) + 64
	var ticks [3]int64
	for i, id := range []int{4, 5, 14} {
		i := i
		chip.LaunchOne(id, func(c *Core) {
			c.ComputeCycles(int64(100 * (i + 1))) // fixes the park order
			c.WaitFlag(line+i, 1)
			c.MPBRead(chip.MPBBase(0)+128, make([]byte, 4*model.CacheLineBytes))
			ticks[i] = int64(c.Now())
		})
	}
	chip.LaunchOne(40, func(c *Core) {
		c.ComputeCycles(5000)
		c.MPBWrite(line, []byte{1, 1, 1})
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	return ticks
}

// TestBulkWriteWakesInParkOrder: one bulk write that hits several waited
// bytes wakes their waiters in park order. (The per-owner index this
// replaced was a Go map, so the order — and with it the link-contention
// order of the re-probes — was whatever map iteration said.)
func TestBulkWriteWakesInParkOrder(t *testing.T) {
	want := [3]int64{15939, 16417, 16895}
	for run := 0; run < 50; run++ {
		if got := bulkWakeTicks(t); got != want {
			t.Fatalf("fresh chip %d: waiters resumed at %v, want %v", run, got, want)
		}
	}
}

// TestParkedOncePerOwner pins the registry's invariants around one
// blocked multi-flag wait: three flags on two owners list the core once
// under each owner and nowhere else, watch aliases the caller's slice
// while the core is blocked, and both are gone on return — whether a
// write ended the wait or its deadline did.
func TestParkedOncePerOwner(t *testing.T) {
	for _, timeout := range []bool{false, true} {
		chip := New(timing.Default())
		offs := []Flag{Watch(chip.MPBBase(0)+3, 1, 1), Watch(chip.MPBBase(9)+40, 1, 1), Watch(chip.MPBBase(0)+100, 1, 1)}
		parkedAnywhere := func() bool {
			return slices.ContainsFunc(chip.parked, func(l []int32) bool { return len(l) != 0 })
		}
		chip.LaunchOne(0, func(c *Core) {
			_, _, ok := c.WaitFlagsMatch(offs, 9000)
			if ok == timeout {
				t.Errorf("timeout=%t: wait matched=%t", timeout, ok)
			}
			if parkedAnywhere() || c.watch != nil {
				t.Errorf("timeout=%t: after the wait parked=%v watch=%v", timeout, chip.parked, c.watch)
			}
		})
		chip.LaunchOne(5, func(c *Core) {
			c.ComputeCycles(1000)
			c.Now() // the waiter has probed all three flags and is blocked
			for owner, list := range chip.parked {
				want := []int32(nil)
				if owner == 0 || owner == 9 {
					want = []int32{0}
				}
				if !slices.Equal(list, want) {
					t.Errorf("timeout=%t: parked[%d] = %v, want %v", timeout, owner, list, want)
				}
			}
			if w := chip.Cores[0].watch; len(w) != 3 || &w[0] != &offs[0] {
				t.Errorf("timeout=%t: blocked core watches %v, want the caller's %v", timeout, w, offs)
			}
			if !timeout {
				c.SetFlag(offs[1].Off(), 1)
			}
		})
		if err := chip.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSecondAcceptedByteMatches: a flag accepts either of its two bytes,
// and the wait returns the index and the value it found.
func TestSecondAcceptedByteMatches(t *testing.T) {
	chip := New(timing.Default())
	a, b := chip.MPBBase(0)+3, chip.MPBBase(9)+40
	var i int
	var v, single byte
	var ok, singleOK bool
	chip.LaunchOne(0, func(c *Core) {
		i, v, ok = c.WaitFlagsMatch([]Flag{Watch(a, 5, 0x85), Watch(b, 7, 6)}, 0)
		single, singleOK = c.WaitFlagMatch(Watch(a, 5, 0x85), 0)
	})
	chip.LaunchOne(5, func(c *Core) {
		c.ComputeCycles(2000)
		c.SetFlag(b, 6)
		c.ComputeCycles(2000)
		c.SetFlag(a, 0x85)
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	if i != 1 || v != 6 || !ok {
		t.Errorf("list wait = (%d, %d, %t), want (1, 6, true)", i, v, ok)
	}
	if single != 0x85 || !singleOK {
		t.Errorf("single wait = (%#x, %t), want (0x85, true)", single, singleOK)
	}
}

// boundedWaitEnd runs one bounded WaitFlagMatch on core 0 that expires,
// with core 5 writing stray, a byte the flag does not accept, into it
// halfway (or nowhere, if stray is 0), and returns the tick the wait
// ended at and how many probes it paid.
func boundedWaitEnd(t *testing.T, stray byte) (simtime.Time, int64) {
	t.Helper()
	chip := New(timing.Default())
	reg := metrics.New(chip.NumCores())
	chip.SetMetrics(reg)
	off := chip.MPBBase(0) + 3
	var end simtime.Time
	chip.LaunchOne(0, func(c *Core) {
		if _, ok := c.WaitFlagMatch(Watch(off, 1, 2), 20000); ok {
			t.Errorf("stray %d: the wait matched", stray)
		}
		end = c.Now()
	})
	if stray != 0 {
		chip.LaunchOne(5, func(c *Core) {
			c.ComputeCycles(3000)
			c.SetFlag(off, stray)
		})
	}
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	return end, reg.Snapshot().Cores[0].Counters[metrics.CtrFlagProbes.String()]
}

// TestStrayByteKeepsTheDeadline: a write of a byte the flag does not
// accept wakes the core, which probes once more and parks again with
// the deadline it had. The wait ends at the same tick as one nobody
// disturbed, one probe dearer.
func TestStrayByteKeepsTheDeadline(t *testing.T) {
	quiet, quietProbes := boundedWaitEnd(t, 0)
	stray, strayProbes := boundedWaitEnd(t, 3)
	if stray != quiet || strayProbes != quietProbes+1 {
		t.Errorf("with a stray write the wait ended at %d after %d probes, undisturbed at %d after %d",
			stray, strayProbes, quiet, quietProbes)
	}
}

// TestTimedOutWaitLeavesNoWaiter: once a bounded wait has expired, a
// write to its flag finds no waiter on the core's signal and schedules
// nothing — the run costs exactly the events of the same write to a
// byte nobody watched.
func TestTimedOutWaitLeavesNoWaiter(t *testing.T) {
	run := func(target int) (events uint64, end simtime.Time) {
		chip := New(timing.Default())
		off := chip.MPBBase(0) + 3
		chip.LaunchOne(0, func(c *Core) {
			if _, ok := c.WaitFlagMatch(Watch(off, 1, 1), 3000); ok {
				t.Error("the wait matched")
			}
			c.ComputeCycles(20000)
			end = c.Now()
		})
		chip.LaunchOne(5, func(c *Core) {
			c.ComputeCycles(5000) // past the waiter's deadline
			c.SetFlag(off+target, 1)
			if n := chip.Cores[0].sig.Waiters(); n != 0 {
				t.Errorf("after the write core 0's signal has %d waiters", n)
			}
		})
		if err := chip.Run(); err != nil {
			t.Fatal(err)
		}
		h, f := chip.Engine.SchedStats()
		return h + f, end
	}
	watched, watchedEnd := run(0)
	other, otherEnd := run(1)
	if watched != other || watchedEnd != otherEnd {
		t.Errorf("a write to the expired wait's flag ran %d events (waiter done at %d), to another byte %d (%d)",
			watched, watchedEnd, other, otherEnd)
	}
}

// TestMixedPairsMatchTheRightFlag: the hardened transport's list wait
// watches a send's ready flag (accepting the ACK s or the NACK s|0x80)
// and a receive's sent flag (the chunk s or a duplicate of s-1) at once.
// Each value ends the wait at the flag that accepts it; a value only the
// other flag accepts does not.
func TestMixedPairsMatchTheRightFlag(t *testing.T) {
	const s = 9
	for _, c := range []struct {
		name   string
		sendV  byte // written into the send's ready flag (0: nothing)
		recvV  byte // written into the receive's sent flag
		wantI  int
		wantV  byte
		wantOK bool
	}{
		{"ack", s, 0, 0, s, true},
		{"nack", s | 0x80, 0, 0, s | 0x80, true},
		{"chunk", 0, s, 1, s, true},
		{"duplicate", 0, s - 1, 1, s - 1, true},
		{"crossed", s - 1, s | 0x80, -1, 0, false},
	} {
		chip := New(timing.Default())
		ready, sent := chip.MPBBase(0)+4, chip.MPBBase(0)+40
		var i int
		var v byte
		var ok bool
		chip.LaunchOne(0, func(core *Core) {
			i, v, ok = core.WaitFlagsMatch([]Flag{Watch(ready, s, s|0x80), Watch(sent, s, s-1)}, 20000)
		})
		chip.LaunchOne(5, func(core *Core) {
			core.ComputeCycles(2000)
			if c.sendV != 0 {
				core.SetFlag(ready, c.sendV)
			}
			if c.recvV != 0 {
				core.SetFlag(sent, c.recvV)
			}
		})
		if err := chip.Run(); err != nil {
			t.Fatal(err)
		}
		if i != c.wantI || v != c.wantV || ok != c.wantOK {
			t.Errorf("%s: wait = (%d, %d, %t), want (%d, %d, %t)", c.name, i, v, ok, c.wantI, c.wantV, c.wantOK)
		}
	}
}

// clockInStep is a continuation whose step, once its core's access is
// paid, charges local latency and reads the clock: Core.Now then flushes
// through Core.Run, process code that a step must never run.
type clockInStep struct{ c *Core }

func (k clockInStep) Wake() simtime.Step {
	if st := k.c.Step(); st != simtime.Resume() {
		return st
	}
	k.c.Compute(5)
	k.c.Now()
	return simtime.Resume()
}

// TestClockReadInAStepFails: the run fails with ErrProcessCodeInStep,
// naming the core whose continuation read the clock and the stack it
// ran on, where the Go runtime used to fail with iter.Pull's "yield
// called again before next" (or, on the process's own stack, not at all).
func TestClockReadInAStepFails(t *testing.T) {
	chip := New(timing.Default())
	defer chip.Release()
	for id := range 2 {
		chip.LaunchOne(id, func(c *Core) {
			c.Compute(simtime.Duration(100 * (id + 1)))
			c.Run(clockInStep{c}, c.BeginAccess(chip.MPBBase(1-id), 1, false))
		})
	}
	err := chip.Run()
	want := `: the continuation of "core00" ran on the stack of "core01"`
	if !errors.Is(err, simtime.ErrProcessCodeInStep) || err.Error() != simtime.ErrProcessCodeInStep.Error()+want {
		t.Fatalf("Run = %v, want ErrProcessCodeInStep%s", err, want)
	}
}
