package scc

import (
	"testing"

	"scc/internal/timing"
)

// The protocol hot path must not allocate in the steady state: these
// tests pin per-round allocation budgets using the delta technique (a
// chip cannot be re-Run, so per-round cost is the slope between a short
// and a long run of the same program; the fixed construction cost
// cancels).

// runFlagPingPong runs `rounds` blocking flag handshakes between two
// cores: every WaitFlag in the loop actually blocks before its partner's
// SetFlag releases it.
func runFlagPingPong(rounds int) {
	chip := New(timing.Default())
	off0 := chip.MPBBase(0)
	off1 := chip.MPBBase(1)
	chip.LaunchOne(0, func(c *Core) {
		for i := 0; i < rounds; i++ {
			c.WaitFlag(off0, 1)
			c.SetFlag(off0, 0)
			c.SetFlag(off1, 1)
		}
	})
	chip.LaunchOne(1, func(c *Core) {
		for i := 0; i < rounds; i++ {
			c.SetFlag(off0, 1)
			c.WaitFlag(off1, 1)
			c.SetFlag(off1, 0)
		}
	})
	if err := chip.Run(); err != nil {
		panic(err)
	}
}

// runFlagSpin runs `rounds` WaitFlag calls that never block (the flag is
// already set), exercising the unblocked fast path.
func runFlagSpin(rounds int) {
	chip := New(timing.Default())
	off := chip.MPBBase(0)
	chip.LaunchOne(0, func(c *Core) {
		c.SetFlag(off, 1)
		for i := 0; i < rounds; i++ {
			c.WaitFlag(off, 1)
		}
	})
	if err := chip.Run(); err != nil {
		panic(err)
	}
}

// perRound measures the marginal allocations of one loop round by
// running the program at two lengths and taking the slope.
func perRound(t *testing.T, f func(rounds int), lo, hi int) float64 {
	t.Helper()
	a := testing.AllocsPerRun(3, func() { f(lo) })
	b := testing.AllocsPerRun(3, func() { f(hi) })
	return (b - a) / float64(hi-lo)
}

func TestWaitFlagBlockedAllocFree(t *testing.T) {
	got := perRound(t, runFlagPingPong, 20, 220)
	// Budget: one blocking handshake (wait + two flag writes per side)
	// must not allocate once signals and event-queue storage are warm.
	if got > 0.05 {
		t.Fatalf("blocked WaitFlag round allocates %.3f objects; budget 0.05", got)
	}
}

func TestWaitFlagUnblockedAllocFree(t *testing.T) {
	got := perRound(t, runFlagSpin, 20, 220)
	if got > 0.05 {
		t.Fatalf("unblocked WaitFlag round allocates %.3f objects; budget 0.05", got)
	}
}

// runArriveRelease runs master-gather barrier rounds, the way rcce lays
// them out, on a fresh 48-core chip: every core sets its arrive byte in
// core 0's MPB and waits on the release byte in its own; core 0 collects
// the 47 arrive bytes in turn and then releases everybody. Every round
// uses flag bytes no earlier round touched. With rounds == 0 the cores
// are launched but do nothing, which prices the chip and its processes
// alone.
func runArriveRelease(rounds int) {
	chip := New(timing.Default())
	n := chip.NumCores()
	chip.Launch(func(c *Core) {
		for r := 0; r < rounds; r++ {
			if c.ID != 0 {
				c.SetFlag(chip.MPBBase(0)+r*n+c.ID, 1)
				c.WaitFlag(chip.MPBBase(c.ID)+r, 1)
				continue
			}
			for i := 1; i < n; i++ {
				c.WaitFlag(chip.MPBBase(0)+r*n+i, 1)
			}
			for i := 1; i < n; i++ {
				c.SetFlag(chip.MPBBase(i)+r, 1)
			}
		}
	})
	if err := chip.Run(); err != nil {
		panic(err)
	}
}

// TestFlagWaitsAllocatePerCoreNotPerFlag: what a wait leaves behind is
// per core (its signal's waiter list, its owner's parked list), never
// per flag byte. The per-flag Signal map this replaced paid a map entry
// and slab storage for every flag ever set: 254 objects for the first
// round and half an object per fresh flag byte after it.
func TestFlagWaitsAllocatePerCoreNotPerFlag(t *testing.T) {
	const cores, flagsPerRound = 48, 2 * 47
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() { runArriveRelease(rounds) })
	}
	idle, one, eleven := allocs(0), allocs(1), allocs(11)
	// The first round on a fresh chip: per core the MPB page its flags
	// live in (two objects), one waiter list and one parked list — 194
	// measured; the slack is what the race detector's runs scatter by.
	if first := one - idle; first > 4*cores+24 {
		t.Errorf("first barrier round on a fresh chip allocates %.0f objects; budget %d", first, 4*cores+24)
	}
	if perFlag := (eleven - one) / (10 * flagsPerRound); perFlag > 0.05 {
		t.Errorf("a round on fresh flag bytes allocates %.3f objects per flag; budget 0.05", perFlag)
	}
}
