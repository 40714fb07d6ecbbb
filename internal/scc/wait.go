package scc

import (
	"slices"

	"scc/internal/metrics"
	"scc/internal/simtime"
)

// This file is the one place a core waits on MPB flags: the four public
// waits marshal their arguments into waitFlags, SetFlag and MPBWrite end
// in Chip.wake, and Chip.parked is the only record of who is blocked
// (invariants in DESIGN.md §4). Every wait of a core blocks on the
// core's own Core.sig: a core is one simulated process, so it is in at
// most one wait at a time and the first write to any watched flag wakes
// it exactly once (Broadcast empties the signal; later writes find it
// empty). A process the engine kills while parked (shutdown after a
// deadlock) never unparks; its stale entry costs a later write one
// Broadcast that wakes nobody.

// WaitFlag blocks until the MPB flag byte at off equals want. Every probe
// pays one MPB read; time spent blocked is recorded in the profile (the
// paper's rcce_wait_until time). Returns the time spent waiting.
func (c *Core) WaitFlag(off int, want byte) simtime.Duration {
	c.oneOff[0] = off
	before := c.prof.FlagWait
	c.waitFlags(c.oneOff[:], 0, func(_ int, v byte) bool { return v == want },
		simtime.WaitSite{Kind: simtime.WaitFlagEq, Core: int32(c.ID), Off: int32(off), Want: int32(want)}, "wait-flag")
	return c.prof.FlagWait - before
}

// WaitFlagAny blocks until at least one of the MPB flag bytes in offs
// equals want, and returns the index of the first (lowest-index) match.
// Each probe round pays one MPB read per checked flag, stopping at the
// first match (short-circuit polling, like a sequential flag scan on the
// real core). Used by non-blocking wait-all loops that must make progress
// on whichever request completes first.
func (c *Core) WaitFlagAny(offs []int, want byte) int {
	if len(offs) == 0 {
		panic("scc: WaitFlagAny with no flags")
	}
	i, _, _ := c.waitFlags(offs, 0, func(_ int, v byte) bool { return v == want }, c.anySite(offs), "wait-any")
	return i
}

// The plain WaitFlag/WaitFlagAny wait forever — correct on a fault-free
// chip, but a single lost flag write turns them into a hang. The two
// variants below, used by the hardened point-to-point protocol, bound the
// wait and match by predicate (the robust protocol's flags carry sequence
// numbers, not just 0/1).

// WaitFlagMatch blocks until pred is true of the MPB flag byte at off, or
// until limit elapses (limit <= 0 waits forever). It returns the flag
// value last observed and whether it matched. Every probe pays one MPB
// line read, and a timed-out wait still pays the final disappointing
// probe, so defensive waiting has a measured cost.
func (c *Core) WaitFlagMatch(off int, limit simtime.Duration, pred func(byte) bool) (byte, bool) {
	c.oneOff[0] = off
	_, v, ok := c.waitFlags(c.oneOff[:], limit, func(_ int, v byte) bool { return pred(v) },
		simtime.WaitSite{Kind: simtime.WaitFlagPred, Core: int32(c.ID), Off: int32(off)}, "wait-flag")
	return v, ok
}

// WaitFlagsMatch blocks until pred(i, v) is true of some watched flag, or
// until limit elapses (limit <= 0 waits forever). It returns the index and
// value of the first (lowest-index) match, or (-1, 0, false) on timeout.
// Each probe round pays one MPB read per flag checked, short-circuiting at
// the first match. This is the full-duplex engine's wait: one core watches
// its send-ack and its recv-data flags at once.
func (c *Core) WaitFlagsMatch(offs []int, limit simtime.Duration, pred func(i int, v byte) bool) (int, byte, bool) {
	if len(offs) == 0 {
		panic("scc: WaitFlagsMatch with no flags")
	}
	i, v, ok := c.waitFlags(offs, limit, pred, c.anySite(offs), "wait-any")
	if !ok {
		return -1, 0, false
	}
	return i, v, true
}

// anySite describes an any-flag blocking point: the watched-flag count
// and the first offset stand in for the full list, which cannot be
// stored without allocating.
func (c *Core) anySite(offs []int) simtime.WaitSite {
	return simtime.WaitSite{
		Kind: simtime.WaitFlagsAny,
		Core: int32(c.ID),
		Off:  int32(offs[0]),
		Want: int32(len(offs)),
	}
}

// waitFlags blocks until pred(i, v) holds for the flag byte v at some
// offs[i], or until limit elapses (limit <= 0 waits forever). It returns
// the first (lowest-index) match, or ok == false with the value probed
// last. A probe round reads the flags in order, one MPB line read each,
// and stops at the first match; a round that disappoints past the
// deadline ends the wait, otherwise the core parks until one of the
// flags is written and probes again. site names the blocking point in
// deadlock reports, label the trace span of a wait that blocked.
func (c *Core) waitFlags(offs []int, limit simtime.Duration, pred func(i int, v byte) bool, site simtime.WaitSite, label string) (int, byte, bool) {
	for _, off := range offs {
		c.checkMPBRange(off, 1)
	}
	// Flush deferred local latency first: it is work that happened before
	// the wait, so it must not inflate the wait interval (which becomes
	// the "wait-*" span and the flag-wait phase).
	begin := c.Now()
	deadline := begin + limit
	reg := c.chip.metrics
	blocked := false
	for {
		var v byte
		for i, off := range offs {
			owner := c.chip.MPBOwner(off)
			c.mpbLineAccess(owner, true)
			if reg != nil {
				reg.Count(c.ID, metrics.CtrFlagProbes)
			}
			if v = c.chip.mpb.byteAt(owner, off); pred(i, v) {
				c.endWait(begin, blocked, label)
				return i, v, true
			}
		}
		if limit > 0 && c.proc.Now() >= deadline {
			c.endWait(begin, blocked, label)
			return -1, v, false
		}
		blocked = true
		c.park(offs)
		if limit > 0 {
			c.proc.WaitOnTimeout(&c.sig, deadline-c.proc.Now(), site)
		} else {
			c.proc.WaitOn(&c.sig, site)
		}
		c.unpark()
	}
}

// endWait accounts one wait interval that began at begin: it always adds
// to Profile.FlagWait; in the metrics registry the whole interval (probes
// included) counts as PhaseFlagWait when the wait actually blocked — the
// exact extent of the "wait-*" trace span, recorded under label — and as
// unblocked flag traffic (PhaseFlagSync) otherwise.
func (c *Core) endWait(begin simtime.Time, blocked bool, label string) {
	now := c.proc.Now()
	waited := now - begin
	c.prof.FlagWait += waited
	if blocked {
		c.prof.FlagWaits++
		c.RecordSpan(label, begin, now)
	}
	if reg := c.chip.metrics; reg != nil && blocked {
		reg.AddPhase(c.ID, metrics.PhaseFlagWait, waited)
		reg.Count(c.ID, metrics.CtrBlockedWaits)
		reg.ObserveWait(waited)
	} else if reg != nil {
		reg.AddPhase(c.ID, metrics.PhaseFlagSync, waited)
	}
}

// park lists the core, watching offs, once under every distinct owner of
// offs. Nobody else parks during the call, so an earlier flag of the same
// owner has listed the core already exactly when it is the list's last.
func (c *Core) park(offs []int) {
	c.watch = offs
	for _, off := range offs {
		list := &c.chip.parked[c.chip.MPBOwner(off)]
		if n := len(*list); n == 0 || (*list)[n-1] != int32(c.ID) {
			*list = append(*list, int32(c.ID))
		}
	}
}

// unpark undoes park, keeping the order of the cores still listed.
func (c *Core) unpark() {
	for _, off := range c.watch {
		list := &c.chip.parked[c.chip.MPBOwner(off)]
		if j := slices.Index(*list, int32(c.ID)); j >= 0 {
			*list = slices.Delete(*list, j, j+1)
		}
	}
	c.watch = nil
}

// wake resumes every core parked on a flag byte in [off, off+n): the one
// byte of a SetFlag, or whatever flags a bulk MPBWrite happens to cover
// (a data write can legitimately overwrite a flag area). Only the owners
// the write lands in are scanned.
func (ch *Chip) wake(off, n int) {
	if n <= 0 {
		return
	}
	last := ch.MPBOwner(off + n - 1)
	for owner := ch.MPBOwner(off); owner <= last; owner++ {
		for _, id := range ch.parked[owner] {
			w := ch.Cores[id]
			for _, o := range w.watch {
				if o >= off && o < off+n {
					w.sig.Broadcast(ch.Engine)
					break
				}
			}
		}
	}
}
