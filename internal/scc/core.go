package scc

import (
	"encoding/binary"
	"fmt"

	"scc/internal/mesh"
	"scc/internal/metrics"
	"scc/internal/simtime"
)

// Addr is a byte offset into a core's private memory arena.
type Addr int

// Core is one simulated P54C core. All methods that bear latency must be
// called from within the core's simulated process (i.e. inside the
// function passed to Chip.Launch).
type Core struct {
	ID   int
	chip *Chip
	tile mesh.Coord
	// memHops is the mesh distance from tile to the memory controller
	// serving this core; fixed geometry, so computed once in newCore.
	memHops int
	proc    *simtime.Proc

	coreStore // private memory, caches, scratch: what a released chip recycles
	brk       Addr

	// pending accumulates purely local latency (compute, cache hits,
	// private-memory misses) that no other core can observe until this
	// core next touches shared state. It is flushed into a single
	// simulated sleep at every MPB/flag interaction and at Now(). This
	// batching collapses thousands of scheduler events per collective
	// without changing any observable timing.
	pending simtime.Duration

	// spanRec, when set, receives labeled time spans for protocol
	// visualization (see internal/trace).
	spanRec func(label string, start, end simtime.Time)

	// freqDiv is the DVFS clock divider (see power.go); 0 means the
	// default preset (divider 3, 533 MHz). energy accumulates the
	// relative compute energy.
	freqDiv int
	energy  float64

	// dead marks a core whose process was terminated by an injected
	// permanent-failure fault.
	dead bool

	sig    simtime.Signal // the one signal every flag wait of this core blocks on
	watch  []int          // flags watched while parked (see park); nil otherwise
	oneOff [1]int         // WaitFlag/WaitFlagMatch's one-element flag list

	prof Profile
}

// grow returns (*buf)[:n], reallocating only when capacity grows.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// Dead reports whether an injected fault has permanently killed this core.
func (c *Core) Dead() bool { return c.dead }

// Note records the core's last successful protocol step; it appears in
// deadlock reports next to the blocking point. The note carries a static
// format string plus integers and is only formatted if a deadlock report
// is rendered (see simtime.Note). Safe to call before Launch (no-op).
func (c *Core) Note(n simtime.Note) {
	if c.proc != nil {
		c.proc.SetNote(n)
	}
}

// faultCheck applies pending core-level faults (transient stall, permanent
// death) on the shared-state path. Called with local latency already
// flushed.
func (c *Core) faultCheck() {
	h := c.chip.Fault
	if h == nil || c.proc == nil {
		return
	}
	now := c.proc.Now()
	if d := h.StallCore(c.ID, now); d > 0 {
		c.proc.Sleep(d)
	}
	if h.CoreDead(c.ID, now) {
		c.dead = true
		panic(coreDeadPanic{c.ID})
	}
}

// SetSpanRecorder installs a span hook (nil disables recording).
func (c *Core) SetSpanRecorder(rec func(label string, start, end simtime.Time)) {
	c.spanRec = rec
}

// RecordSpan forwards a labeled interval to the span recorder, if any.
func (c *Core) RecordSpan(label string, start, end simtime.Time) {
	if c.spanRec != nil {
		c.spanRec(label, start, end)
	}
}

// Tracing reports whether a span recorder is installed.
func (c *Core) Tracing() bool { return c.spanRec != nil }

// Metrics returns the chip's metrics registry, or nil when metrics are
// off. Protocol layers use it for their own counters; all observations
// are pure recording and never advance virtual time.
func (c *Core) Metrics() *metrics.Registry { return c.chip.metrics }

// chargeLocal defers a purely local latency.
func (c *Core) chargeLocal(d simtime.Duration) { c.pending += d }

// flushLocal advances the clock by any deferred local latency. Must be
// called before interacting with shared state or reading the clock.
func (c *Core) flushLocal() {
	if c.pending > 0 {
		d := c.pending
		c.pending = 0
		c.proc.Sleep(d)
	}
}

// Profile accumulates per-core instrumentation, mirroring the paper's
// profiling of the thermodynamic application (Sec. IV-A: "cores spend up
// to 50% of their time in the rcce_wait_until method").
type Profile struct {
	// FlagWait is virtual time spent blocked waiting on MPB flags.
	FlagWait simtime.Duration
	// Compute is virtual time charged through Compute.
	Compute simtime.Duration
	// MPBBytesRead / Written count MPB traffic issued by this core.
	MPBBytesRead    int64
	MPBBytesWritten int64
	// FlagWaits counts WaitFlag invocations that actually blocked.
	FlagWaits int64
}

// init makes c core id of chip on the storage st, fresh or recycled.
func (c *Core) init(chip *Chip, id int, st coreStore) {
	m := chip.Model
	tile := chip.TileOf(id)
	*c = Core{
		ID:        id,
		chip:      chip,
		tile:      tile,
		memHops:   mesh.Hops(tile, chip.memControllerFor(id)),
		coreStore: st,
	}
	c.l1.capacity = m.L1DataBytes / m.CacheLineBytes
	c.l2.capacity = m.L2Bytes / m.CacheLineBytes
}

// Chip returns the chip this core belongs to.
func (c *Core) Chip() *Chip { return c.chip }

// Tile returns the mesh coordinate of the core's tile.
func (c *Core) Tile() mesh.Coord { return c.tile }

// Proc exposes the underlying simulated process (nil before Launch).
func (c *Core) Proc() *simtime.Proc { return c.proc }

// Now returns the core's current virtual time, first applying any
// deferred local latency.
func (c *Core) Now() simtime.Time {
	c.flushLocal()
	return c.proc.Now()
}

// Prof returns a snapshot of the core's profile counters.
func (c *Core) Prof() Profile { return c.prof }

// ResetProfile clears the profile counters.
func (c *Core) ResetProfile() { c.prof = Profile{} }

// --- Private memory ---

// Alloc reserves n bytes of private memory, line-aligned, and returns its
// address. Allocation itself is free (it models static/stack data).
func (c *Core) Alloc(n int) Addr {
	c.chip.mustLive()
	line := c.chip.Model.CacheLineBytes
	c.brk = Addr((int(c.brk) + line - 1) / line * line)
	a := c.brk
	c.brk += Addr(n)
	if need := int(c.brk); need > len(c.priv) {
		if need > cap(c.priv) {
			grown := make([]byte, need, 2*need)
			copy(grown, c.priv)
			c.priv = grown
		} else {
			c.priv = c.priv[:need]
		}
	}
	return a
}

// AllocF64 reserves space for n float64 values.
func (c *Core) AllocF64(n int) Addr { return c.Alloc(8 * n) }

// privAccessCost prices one access to the private-memory line holding
// byte address a, updating cache state but not advancing time. write
// selects store semantics (L1 write-allocate, L2 non-write-allocate,
// matching the SCC tile's cache policies).
func (c *Core) privAccessCost(a Addr, write bool) simtime.Duration {
	m := c.chip.Model
	reg := c.chip.metrics
	line := int64(a) / int64(m.CacheLineBytes)
	var d simtime.Duration
	switch {
	case c.l1.lookup(line):
		if reg != nil {
			reg.Count(c.ID, metrics.CtrL1Hits)
		}
		d = m.L1Hit()
	case c.l2.lookup(line):
		c.l1.insert(line)
		if reg != nil {
			reg.Count(c.ID, metrics.CtrL1Misses)
			reg.Count(c.ID, metrics.CtrL2Hits)
		}
		d = m.L2Hit()
	default:
		c.l1.insert(line)
		if !write { // L2 is non-write-allocate
			c.l2.insert(line)
		}
		if reg != nil {
			reg.Count(c.ID, metrics.CtrL1Misses)
			reg.Count(c.ID, metrics.CtrL2Misses)
		}
		d = m.DRAMAccess(c.memHops)
	}
	if reg != nil {
		reg.AddPhase(c.ID, metrics.PhaseMemory, d)
	}
	return d
}

// chargePrivAccess prices one private-memory access (deferred: private
// memory is invisible to other cores).
func (c *Core) chargePrivAccess(a Addr, write bool) {
	c.chargeLocal(c.privAccessCost(a, write))
}

// touchRange charges cache costs for every line in [a, a+n), advancing
// time once for the whole range (per-line interleaving below the
// resolution of one bulk access is not observable by other cores, since
// private memory is private).
func (c *Core) touchRange(a Addr, n int, write bool) {
	if n <= 0 {
		return
	}
	lineSz := Addr(c.chip.Model.CacheLineBytes)
	first := a / lineSz
	last := (a + Addr(n) - 1) / lineSz
	var total simtime.Duration
	for l := first; l <= last; l++ {
		total += c.privAccessCost(l*lineSz, write)
	}
	c.chargeLocal(total)
}

// TouchRead charges cache costs for reading the byte range [a, a+n) of
// private memory without moving data (for callers that stage raw bytes).
func (c *Core) TouchRead(a Addr, n int) { c.touchRange(a, n, false) }

// TouchWrite charges cache costs for writing the byte range [a, a+n).
func (c *Core) TouchWrite(a Addr, n int) { c.touchRange(a, n, true) }

// ReadF64 loads one float64 from private memory.
func (c *Core) ReadF64(a Addr) float64 {
	c.chargePrivAccess(a, false)
	return readF64(c.priv, a)
}

// WriteF64 stores one float64 to private memory.
func (c *Core) WriteF64(a Addr, v float64) {
	c.chargePrivAccess(a, true)
	writeF64(c.priv, a, v)
}

// ReadF64s loads n float64 values starting at a into dst.
func (c *Core) ReadF64s(a Addr, dst []float64) {
	c.touchRange(a, 8*len(dst), false)
	for i := range dst {
		dst[i] = readF64(c.priv, a+Addr(8*i))
	}
}

// WriteF64s stores src into private memory starting at a.
func (c *Core) WriteF64s(a Addr, src []float64) {
	c.touchRange(a, 8*len(src), true)
	for i, v := range src {
		writeF64(c.priv, a+Addr(8*i), v)
	}
}

// PrivBytes exposes raw private memory (no timing) for tests.
func (c *Core) PrivBytes(a Addr, n int) []byte { return c.priv[a : a+Addr(n)] }

// Compute advances the core's clock by d to model pure computation
// (deferred until the next shared-state interaction).
func (c *Core) Compute(d simtime.Duration) {
	if d < 0 {
		panic("scc: negative compute duration")
	}
	c.prof.Compute += d
	c.chargeLocal(d)
	if r := c.chip.metrics; r != nil {
		r.AddPhase(c.ID, metrics.PhaseCompute, d)
	}
}

// chargeCyclesAs charges n core clock cycles at the core's current
// clock (DVFS-aware), accumulates the energy estimate, and attributes
// the time to the given metrics phase. Timing, energy and the Profile
// are identical for every phase — only the metrics classification
// differs.
func (c *Core) chargeCyclesAs(ph metrics.Phase, n int64) {
	d := c.cycleDuration(n)
	c.energy += c.relativePower() * d.Seconds()
	c.prof.Compute += d
	c.chargeLocal(d)
	if r := c.chip.metrics; r != nil {
		r.AddPhase(c.ID, ph, d)
	}
}

// ComputeCycles charges n core clock cycles of computation at the
// core's current clock (DVFS-aware) and accumulates the energy
// estimate.
func (c *Core) ComputeCycles(n int64) { c.chargeCyclesAs(metrics.PhaseCompute, n) }

// OverheadCycles charges n core clock cycles of communication-library
// software overhead. It is priced exactly like ComputeCycles (same
// clock, energy and Profile accounting) but classified as
// PhaseOverhead in the metrics registry, so the "where the cycles go"
// breakdown can separate library time from application compute.
func (c *Core) OverheadCycles(n int64) { c.chargeCyclesAs(metrics.PhaseOverhead, n) }

// --- MPB access ---

// mpbHops returns the mesh distance from this core to the MPB of owner.
func (c *Core) mpbHops(owner int) int {
	return mesh.Hops(c.tile, c.chip.Cores[owner].tile)
}

// mpbLineAccess charges the latency of one line-sized MPB access and
// models link occupancy for remote accesses. It returns the paid cost
// so callers can attribute it to a metrics phase.
func (c *Core) mpbLineAccess(owner int, read bool) simtime.Duration {
	d := c.mpbAccessCost(owner, 1, read)
	c.proc.Sleep(d)
	return d
}

// mpbAccessCost prices nLines consecutive line-sized MPB accesses
// (including mesh link occupancy for remote ones) without advancing
// time. On the P54C each line is a blocking transaction, so lines
// serialize; the cost is the sum of per-line costs plus any queueing
// behind contended links.
func (c *Core) mpbAccessCost(owner, nLines int, read bool) simtime.Duration {
	c.flushLocal() // MPB state is shared; local time must be applied first
	c.faultCheck()
	m := c.chip.Model
	hops := c.mpbHops(owner)
	lat := m.MPBAccess(hops, read)
	if hops == 0 {
		return lat * simtime.Time(nLines)
	}
	// Remote: packets also occupy mesh links. The data-bearing
	// direction is owner->me for reads and me->owner for writes.
	from, to := c.tile, c.chip.Cores[owner].tile
	if read {
		from, to = to, from
	}
	t := c.proc.Now()
	for l := 0; l < nLines; l++ {
		arrive := c.chip.Net.Transfer(from, to, m.CacheLineBytes, t)
		end := t + lat
		if arrive > end {
			end = arrive
		}
		t = end
	}
	return t - c.proc.Now()
}

// checkMPBRange panics on out-of-bounds MPB access.
func (c *Core) checkMPBRange(off, n int) {
	if off < 0 || n < 0 || off+n > c.chip.mpb.total {
		panic(fmt.Sprintf("scc: MPB access out of range: off=%d n=%d", off, n))
	}
}

// MPBWrite copies src into the MPB at global offset off, paying per-line
// write costs. Writes go through the write-combining buffer, so partial
// lines still cost a full line.
func (c *Core) MPBWrite(off int, src []byte) {
	c.checkMPBRange(off, len(src))
	m := c.chip.Model
	owner := c.chip.MPBOwner(off)
	cost := c.mpbAccessCost(owner, m.Lines(len(src)), false)
	c.proc.Sleep(cost)
	if r := c.chip.metrics; r != nil {
		r.AddPhase(c.ID, metrics.PhaseTransfer, cost)
		r.Count(c.ID, metrics.CtrMPBWrites)
		r.CountN(c.ID, metrics.CtrMPBBytesWritten, int64(len(src)))
	}
	if h := c.chip.Fault; h != nil {
		// Clone src into a per-core scratch buffer so the hook may corrupt
		// the payload without mutating the caller's bytes. The fault-free
		// path (h == nil) never copies.
		data := grow(&c.faultBuf, len(src))
		copy(data, src)
		if h.FilterMPBWrite(c.ID, off, data, c.proc.Now()) {
			// Lost in flight: the cost is paid, nothing lands, nobody
			// wakes. The caller's buffer is never mutated.
			c.prof.MPBBytesWritten += int64(len(src))
			return
		}
		src = data
	}
	c.chip.mpb.write(owner, off, src)
	c.prof.MPBBytesWritten += int64(len(src))
	c.chip.wake(off, len(src))
}

// MPBRead copies n bytes from the MPB at global offset off into dst,
// paying per-line read costs (each line is a blocking round trip on the
// P54C).
func (c *Core) MPBRead(off int, dst []byte) {
	c.checkMPBRange(off, len(dst))
	m := c.chip.Model
	owner := c.chip.MPBOwner(off)
	cost := c.mpbAccessCost(owner, m.Lines(len(dst)), true)
	c.proc.Sleep(cost)
	if r := c.chip.metrics; r != nil {
		r.AddPhase(c.ID, metrics.PhaseTransfer, cost)
		r.Count(c.ID, metrics.CtrMPBReads)
		r.CountN(c.ID, metrics.CtrMPBBytesRead, int64(len(dst)))
	}
	c.chip.mpb.read(owner, off, dst)
	c.prof.MPBBytesRead += int64(len(dst))
}

// MPBWriteF64s writes float64 values to the MPB. The byte staging goes
// through a per-core scratch buffer (a core's MPB operations never
// overlap, so reuse is safe).
func (c *Core) MPBWriteF64s(off int, src []float64) {
	buf := grow(&c.xferBuf, 8*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint64(buf[8*i:], f64bits(v))
	}
	c.MPBWrite(off, buf)
}

// MPBReadF64s reads n float64 values from the MPB.
func (c *Core) MPBReadF64s(off int, dst []float64) {
	buf := grow(&c.xferBuf, 8*len(dst))
	c.MPBRead(off, buf)
	for i := range dst {
		dst[i] = f64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
}

// --- Flags ---

// SetFlag writes one flag byte in the MPB (a full-line write through the
// WCB, like RCCE's line-sized flags) and wakes any cores waiting on it.
func (c *Core) SetFlag(off int, v byte) {
	c.checkMPBRange(off, 1)
	owner := c.chip.MPBOwner(off)
	cost := c.mpbLineAccess(owner, false)
	if r := c.chip.metrics; r != nil {
		r.AddPhase(c.ID, metrics.PhaseFlagSync, cost)
		r.Count(c.ID, metrics.CtrFlagSets)
	}
	if h := c.chip.Fault; h != nil && h.DropFlagWrite(c.ID, off, c.proc.Now()) {
		return // flag write lost in flight: cost paid, no update, no wake-up
	}
	c.chip.mpb.setByte(owner, off, v)
	c.chip.wake(off, 1)
}

// ProbeFlag reads and returns the MPB flag byte at off, paying one MPB
// line read (a non-blocking test).
func (c *Core) ProbeFlag(off int) byte {
	c.checkMPBRange(off, 1)
	owner := c.chip.MPBOwner(off)
	cost := c.mpbLineAccess(owner, true)
	if r := c.chip.metrics; r != nil {
		r.AddPhase(c.ID, metrics.PhaseFlagSync, cost)
		r.Count(c.ID, metrics.CtrFlagProbes)
	}
	return c.chip.mpb.byteAt(owner, off)
}

// --- MPB-direct reduction (Sec. IV-D) ---

// ReduceMPBToMPB implements the paper's MPB-direct inner loop (Fig. 8):
// read n float64 operands from srcOff (typically the left neighbor's
// MPB), combine each with the core's private-memory vector at privAddr,
// and write results to the core's own MPB at dstOff - without staging
// through private memory. Costs: per-line remote reads from srcOff,
// cached private reads, per-element FP work, per-line local writes.
func (c *Core) ReduceMPBToMPB(srcOff int, privAddr Addr, dstOff, n int, op func(a, b float64) float64) {
	m := c.chip.Model
	operand := grow(&c.redA, n)
	c.MPBReadF64s(srcOff, operand) // remote per-line round trips
	local := grow(&c.redB, n)
	c.ReadF64s(privAddr, local) // cached private reads
	perElem := m.MPBReducePerElementCoreCycles
	if m.HardwareBugFixed {
		perElem = m.MPBReduceFixedPerElementCoreCycles
	}
	c.ComputeCycles(perElem * int64(n))
	for i := range operand {
		operand[i] = op(operand[i], local[i])
	}
	c.MPBWriteF64s(dstOff, operand) // local (bug-afflicted) line writes
}

// --- raw helpers ---

func readF64(b []byte, a Addr) float64 {
	return f64frombits(binary.LittleEndian.Uint64(b[a:]))
}

func writeF64(b []byte, a Addr, v float64) {
	binary.LittleEndian.PutUint64(b[a:], f64bits(v))
}
