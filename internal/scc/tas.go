package scc

import (
	"fmt"

	"scc/internal/metrics"
	"scc/internal/simtime"
)

// The SCC provides one hardware test-and-set register per core in the
// tile's configuration-register space. A read returns the current value
// and atomically clears it (so reading 1 means "lock acquired"); writing
// 1 releases. RCCE builds its lock API on these; the simulator models
// the register access like an MPB-port access at the owning tile
// (same mesh path, no erratum involvement - the registers are in the
// CRB, not the MPB).

// tasAccess charges one register access at owner's tile and returns
// the paid cost.
func (c *Core) tasAccess(owner int) simtime.Duration {
	m := c.chip.Model
	hops := c.mpbHops(owner)
	var d simtime.Duration
	if hops == 0 {
		d = simtime.CoreCycles(m.MPBLocalFastCoreCycles)
	} else {
		d = simtime.CoreCycles(m.MPBRemoteBaseCoreCycles) +
			simtime.MeshCycles(m.MeshHopRoundTripMeshCycles*int64(hops))
	}
	c.flushLocal()
	c.proc.Sleep(d)
	return d
}

// TASTest performs one test-and-set probe of core target's register:
// it returns true (and holds the lock) if the register was free.
func (c *Core) TASTest(target int) bool {
	cost, ok := c.tasTest(target)
	if r := c.chip.metrics; r != nil {
		r.AddPhase(c.ID, metrics.PhaseFlagSync, cost)
	}
	return ok
}

// tasTest is the probe without phase attribution: TASAcquire's spin
// loop claims its whole interval (probes included) as flag-wait time,
// so the individual probes must not double-record.
func (c *Core) tasTest(target int) (simtime.Duration, bool) {
	if target < 0 || target >= len(c.chip.Cores) {
		panic(fmt.Sprintf("scc: TAS register %d out of range", target))
	}
	cost := c.tasAccess(target)
	if r := c.chip.metrics; r != nil {
		r.Count(c.ID, metrics.CtrTASProbes)
	}
	if !c.chip.tasTaken[target] {
		c.chip.tasTaken[target] = true
		return cost, true
	}
	return cost, false
}

// TASAcquire spins on core target's test-and-set register until the
// caller holds it. Blocked spinners are parked on a waiter list and
// woken by the release (the simulation equivalent of the polling loop,
// with each wake-up paying one more register probe).
func (c *Core) TASAcquire(target int) {
	begin := c.Now() // flush deferred local latency before the wait interval
	blocked := false
	for {
		_, ok := c.tasTest(target)
		if ok {
			break
		}
		blocked = true
		c.proc.WaitOn(c.chip.tasSignal(target),
			simtime.WaitSite{Kind: simtime.WaitTAS, Core: int32(c.ID), Off: int32(target)})
	}
	c.endWait(begin, blocked, "wait-tas")
}

// TASRelease frees core target's register and wakes spinners.
func (c *Core) TASRelease(target int) {
	if target < 0 || target >= len(c.chip.Cores) {
		panic(fmt.Sprintf("scc: TAS register %d out of range", target))
	}
	cost := c.tasAccess(target)
	if r := c.chip.metrics; r != nil {
		r.AddPhase(c.ID, metrics.PhaseFlagSync, cost)
	}
	if !c.chip.tasTaken[target] {
		panic(fmt.Sprintf("scc: core %d releasing free T&S register %d", c.ID, target))
	}
	c.chip.tasTaken[target] = false
	c.chip.tasSignal(target).Broadcast(c.chip.Engine)
}

// tasSignal returns the waiter list for a register.
func (c *Chip) tasSignal(target int) *simtime.Signal {
	s, ok := c.tasSigs[target]
	if !ok {
		s = &simtime.Signal{}
		c.tasSigs[target] = s
	}
	return s
}
