package scc

import (
	"math"
	"slices"

	"scc/internal/metrics"
	"scc/internal/simtime"
)

// This file is the one place a core waits on MPB flags: the four public
// waits marshal their arguments into waitFlags, SetFlag and MPBWrite end
// in Chip.wake, and Chip.parked is the only record of who is blocked
// (invariants in DESIGN.md §4). A wait is the step machine of core.go:
// probe the flags in order, one MPB line read each, stop at the first
// match, otherwise park and probe again once a watched flag is written.
// The equality waits (WaitFlag, WaitFlagAny) leave every step to the
// engine, which switches to the core's process only at the probe that
// matches; the predicate waits (WaitFlagMatch, WaitFlagsMatch) resume
// after each probe to test their predicate on their own stack, so no
// closure is stored. Every wait of a core blocks on the core's own
// Core.sig: a core is one simulated process, so it is in at most one
// wait at a time and the first write to any watched flag wakes it
// exactly once (Broadcast empties the signal; later writes find it
// empty). A process the engine kills while parked (shutdown after a
// deadlock) never unparks; its stale entry costs a later write one
// Broadcast that wakes nobody.

// WaitFlag blocks until the MPB flag byte at off equals want. Every probe
// pays one MPB read; time spent blocked is recorded in the profile (the
// paper's rcce_wait_until time). Returns the time spent waiting.
func (c *Core) WaitFlag(off int, want byte) simtime.Duration {
	c.oneOff[0] = off
	before := c.prof.FlagWait
	c.waitFlags(c.oneOff[:], modeEq, want, 0, nil)
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
	i, _, _ := c.waitFlags(offs, modeEq|modeAny, want, 0, nil)
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
	_, v, ok := c.waitFlags(c.oneOff[:], 0, 0, limit, func(_ int, v byte) bool { return pred(v) })
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
	i, v, ok := c.waitFlags(offs, modeAny, 0, limit, pred)
	if !ok {
		return -1, 0, false
	}
	return i, v, true
}

// site describes the wait in progress as a blocking point. An any-flag
// site's watched-flag count and first offset stand in for the full
// list, which cannot be stored without allocating.
func (c *Core) site() simtime.WaitSite {
	s := simtime.WaitSite{Kind: simtime.WaitFlagPred, Core: int32(c.ID), Off: int32(c.watch[0])}
	switch {
	case c.mode&modeAny != 0:
		s.Kind, s.Want = simtime.WaitFlagsAny, int32(len(c.watch))
	case c.mode&modeEq != 0:
		s.Kind, s.Want = simtime.WaitFlagEq, int32(c.want)
	}
	return s
}

// waitFlags runs the wait on the flags offs in mode (modeEq: the engine
// matches want; otherwise pred is tested after each probe), bounded by
// limit when limit > 0. It returns the first (lowest-index) match, or
// ok == false with the value probed last once a probe round disappoints
// past the deadline.
func (c *Core) waitFlags(offs []int, mode stepMode, want byte, limit simtime.Duration, pred func(i int, v byte) bool) (int, byte, bool) {
	if len(offs) > math.MaxUint16 {
		panic("scc: a flag wait watches more than 65,535 flags")
	}
	for _, off := range offs {
		c.checkMPBRange(off, 1)
	}
	// The deferred local latency flushed before the first probe is work
	// that happened before the wait, so it must not inflate the wait
	// interval (which becomes the "wait-*" span and the flag-wait phase).
	begin := c.proc.Now() + c.pending
	if limit > 0 {
		mode |= modeBounded
	}
	c.watch, c.mode, c.want = offs, mode|modeRead, want
	i, v, ok := -1, byte(0), true
	for st := c.probe(0); ; {
		c.run(st)
		if c.step == stepTimedOut {
			if c.proc.Now() >= begin+limit {
				ok = false
				break
			}
			c.mode |= modeBlocked
			c.park()
			c.proc.WaitOnTimeout(&c.sig, begin+limit-c.proc.Now(), c.site())
			c.unpark()
			st = c.probe(0)
			continue
		}
		i = int(c.idx)
		if pred == nil {
			v = want // the engine ran every step up to this match
			break
		}
		if v = c.probedFlag(); pred(i, v) {
			break
		}
		st = c.miss()
	}
	c.endWait(begin)
	c.watch, c.mode = nil, 0
	return i, v, ok
}

// probe starts the read of watched flag i. Its flush is a no-op inside
// a wait unless a predicate charged local latency.
func (c *Core) probe(i int) simtime.Step {
	c.idx = uint16(i)
	c.owner, c.lines = int32(c.chip.MPBOwner(c.watch[i])), 1
	return c.flushThen(stepPrice)
}

// probedFlag counts the probe whose read just elapsed and returns the
// flag byte it read.
func (c *Core) probedFlag() byte {
	if reg := c.chip.metrics; reg != nil {
		reg.Count(c.ID, metrics.CtrFlagProbes)
	}
	return c.chip.mpb.byteAt(int(c.owner), c.watch[c.idx])
}

// miss moves past a disappointing probe: on to the next flag, or after
// the last one, parks the core until a watched flag is written. A
// bounded wait hands that to its caller, which checks the deadline and
// parks with a timeout on its own stack.
func (c *Core) miss() simtime.Step {
	if i := int(c.idx) + 1; i < len(c.watch) {
		return c.probe(i)
	}
	if c.mode&modeBounded != 0 {
		c.step = stepTimedOut
		return simtime.Resume()
	}
	c.mode |= modeBlocked
	c.park()
	c.step = stepUnpark
	return c.proc.Park(&c.sig, c.site())
}

// endWait accounts the wait interval that began at begin: it always
// adds to Profile.FlagWait; in the metrics registry the whole interval
// (probes included) counts as PhaseFlagWait when the wait actually
// blocked — the exact extent of the "wait-*" trace span — and as
// unblocked flag traffic (PhaseFlagSync) otherwise.
func (c *Core) endWait(begin simtime.Time) {
	now := c.proc.Now()
	waited := now - begin
	blocked := c.mode&modeBlocked != 0
	c.prof.FlagWait += waited
	if blocked {
		c.prof.FlagWaits++
		label := "wait-flag"
		if c.mode&modeAny != 0 {
			label = "wait-any"
		}
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

// park lists the core once under every distinct owner of its watched
// flags. Nobody else parks during the call, so an earlier flag of the
// same owner has listed the core already exactly when it is the list's
// last.
func (c *Core) park() {
	for _, off := range c.watch {
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
