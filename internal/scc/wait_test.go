package scc

import (
	"slices"
	"testing"

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
		offs := []int{chip.MPBBase(0) + 3, chip.MPBBase(9) + 40, chip.MPBBase(0) + 100}
		parkedAnywhere := func() bool {
			return slices.ContainsFunc(chip.parked, func(l []int32) bool { return len(l) != 0 })
		}
		chip.LaunchOne(0, func(c *Core) {
			_, _, ok := c.WaitFlagsMatch(offs, 9000, func(_ int, v byte) bool { return v == 1 })
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
				c.SetFlag(offs[1], 1)
			}
		})
		if err := chip.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
