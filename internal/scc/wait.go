package scc

import (
	"math"
	"slices"

	"scc/internal/metrics"
	"scc/internal/simtime"
)

// This file is the one place a core waits on MPB flags: the three
// public waits marshal their arguments into wait, SetFlag and MPBWrite
// end in Chip.wake, and Chip.parked is the only record of who is blocked
// (invariants in DESIGN.md §4). A wait is the step machine of core.go,
// and the engine runs every step of it: probe the flags in order, one
// MPB line read each, stop at the first that holds a byte its Flag
// accepts, otherwise park — with the deadline, if the wait has one — and
// probe again once a watched flag is written. The core's process runs
// again only at the probe that matches or the round that finds the
// deadline past. Every wait of a core blocks on the core's own Core.sig:
// a core is one simulated process, so it is in at most one wait at a
// time and the first write to any watched flag wakes it exactly once
// (Broadcast empties the signal; later writes find it empty, and a
// deadline that wins splices the core out). A deadlock report names
// the wait through the parked step machine (steps.String in core.go),
// not the engine. A process the engine kills while parked (shutdown
// after a deadlock) never unparks; its stale entry costs a later write
// one Broadcast that wakes nobody.

// Flag is one MPB flag byte a wait watches and the one or two values
// that end the wait on it: the offset above the two bytes in one word,
// so the one-element list of a single-flag wait keeps Core in its size
// class. Watch builds it.
type Flag uint64

// Watch returns the flag at MPB offset off, which a wait accepts when it
// holds a or b (pass one value twice to accept only it).
func Watch(off int, a, b byte) Flag { return Flag(off)<<16 | Flag(a)<<8 | Flag(b) }

// Off returns the flag's MPB offset.
func (f Flag) Off() int { return int(f >> 16) }

func (f Flag) accepts(v byte) bool { return v == byte(f>>8) || v == byte(f) }

// WaitFlag blocks until the MPB flag byte at off equals want. Every probe
// pays one MPB read; time spent blocked is recorded in the profile (the
// paper's rcce_wait_until time). Returns the time spent waiting.
func (c *Core) WaitFlag(off int, want byte) simtime.Duration {
	before := c.prof.FlagWait
	c.WaitFlagMatch(Watch(off, want, want), 0)
	return c.prof.FlagWait - before
}

// WaitFlagMatch blocks until the flag f holds a value it accepts, or
// until limit elapses (limit <= 0 waits forever: correct on a fault-free
// chip, where a single lost flag write would hang it). It returns the
// flag value last observed and whether it matched. Every probe pays one
// MPB line read, and a timed-out wait still pays the final disappointing
// probe, so defensive waiting has a measured cost.
func (c *Core) WaitFlagMatch(f Flag, limit simtime.Duration) (byte, bool) {
	c.one[0] = f
	_, v, ok := c.wait(c.one[:], 0, limit)
	return v, ok
}

// WaitFlagsMatch blocks until some watched flag holds a value it
// accepts, or until limit elapses (limit <= 0 waits forever). It returns
// the index and value of the first (lowest-index) match, or (-1, 0,
// false) on timeout. Each probe round pays one MPB read per flag
// checked, short-circuiting at the first match (like a sequential flag
// scan on the real core). The non-blocking wait-all loops and the
// full-duplex hardened engine wait this way: one core watches its
// send-ack and its recv-data flags at once.
func (c *Core) WaitFlagsMatch(flags []Flag, limit simtime.Duration) (int, byte, bool) {
	if len(flags) == 0 {
		panic("scc: WaitFlagsMatch with no flags")
	}
	i, v, ok := c.wait(flags, modeAny, limit)
	if !ok {
		return -1, 0, false
	}
	return i, v, true
}

// wait runs the wait on flags in mode (modeAny: a list wait), bounded by
// limit when limit > 0 (see EndWait).
func (c *Core) wait(flags []Flag, mode stepMode, limit simtime.Duration) (int, byte, bool) {
	until := simtime.Never
	if limit > 0 {
		until = c.proc.Now() + c.pending + limit
	}
	begin, st := c.beginWait(flags, mode, until)
	c.Run(nil, st)
	return c.EndWait(begin)
}

// BeginWait returns the instant an unbounded wait on the flag f begins
// and its first step; EndWait(begin) ends it once it has matched.
func (c *Core) BeginWait(f Flag) (simtime.Time, simtime.Step) {
	c.one[0] = f
	return c.beginWait(c.one[:], 0, simtime.Never)
}

// BeginWaitAny is BeginWait for WaitFlagsMatch's wait on the flags,
// which the caller keeps unchanged until EndWait. It ends by until
// (simtime.Never: unbounded), but no sooner than one tick past its
// beginning, the local latency before it flushed.
func (c *Core) BeginWaitAny(flags []Flag, until simtime.Time) (simtime.Time, simtime.Step) {
	return c.beginWait(flags, modeAny, until)
}

func (c *Core) beginWait(flags []Flag, mode stepMode, until simtime.Time) (simtime.Time, simtime.Step) {
	if len(flags) > math.MaxUint16 {
		panic("scc: a flag wait watches more than 65,535 flags")
	}
	for _, f := range flags {
		c.checkMPBRange(f.Off(), 1)
	}
	// The deferred local latency flushed before the first probe is work
	// that happened before the wait, so it must not inflate the wait
	// interval (which becomes the "wait-*" span and the flag-wait phase).
	begin := c.proc.Now() + c.pending
	c.deadline = max(until, begin+1)
	c.watch, c.mode = flags, mode|modeRead
	return begin, c.probe(0)
}

// EndWait accounts the wait that began at begin and just ended. It
// returns the index of the flag probed last and the byte it read (the
// flag still holds it), and whether the wait matched: the first
// (lowest-index) match, or ok == false once a probe round disappointed
// past the deadline.
func (c *Core) EndWait(begin simtime.Time) (int, byte, bool) {
	i, v, ok := int(c.idx), c.flagByte(), c.step == stepProbed
	c.endWait(begin)
	c.watch, c.mode = nil, 0
	return i, v, ok
}

// probe starts the read of watched flag i. Only the first probe of a
// wait finds deferred local latency to flush: no program code runs
// between the others.
func (c *Core) probe(i int) simtime.Step {
	c.idx = uint16(i)
	c.owner, c.lines = int32(c.chip.MPBOwner(c.watch[i].Off())), 1
	return c.flushThen(stepPrice)
}

// flagByte returns the byte of the flag probed last.
func (c *Core) flagByte() byte {
	return c.chip.mpb.byteAt(int(c.owner), c.watch[c.idx].Off())
}

// probed counts the probe whose read just elapsed and reports whether
// its flag holds a byte the flag accepts.
func (c *Core) probed() bool {
	if reg := c.chip.metrics; reg != nil {
		reg.Count(c.ID, metrics.CtrFlagProbes)
	}
	return c.watch[c.idx].accepts(c.flagByte())
}

// miss moves past a disappointing probe: on to the next flag, or after
// the last one, parks the core until a watched flag is written or the
// deadline comes. A round that ends past the deadline ends the wait.
func (c *Core) miss() simtime.Step {
	if i := int(c.idx) + 1; i < len(c.watch) {
		return c.probe(i)
	}
	if c.proc.Now() >= c.deadline {
		c.step = stepNone // timed out
		return simtime.Resume()
	}
	c.mode |= modeBlocked
	c.park()
	c.step = stepUnpark
	return c.proc.Park(&c.sig, c.deadline)
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
	for _, f := range c.watch {
		list := &c.chip.parked[c.chip.MPBOwner(f.Off())]
		if n := len(*list); n == 0 || (*list)[n-1] != int32(c.ID) {
			*list = append(*list, int32(c.ID))
		}
	}
}

// unpark undoes park, keeping the order of the cores still listed.
func (c *Core) unpark() {
	for _, f := range c.watch {
		list := &c.chip.parked[c.chip.MPBOwner(f.Off())]
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
			for _, f := range w.watch {
				if o := f.Off(); o >= off && o < off+n {
					w.sig.Broadcast(ch.Engine)
					break
				}
			}
		}
	}
}
