package core

import (
	"scc/internal/rcce"
	"scc/internal/scc"
)

// This file implements the hardware-specific Allreduce of Sec. IV-D:
// the bucket/ring algorithm operating directly on the MPBs (Fig. 8). A
// core's partial result lives in its own MPB; the right neighbor feeds
// the reduction operator straight from that MPB instead of staging the
// block through private memory. Each MPB data region is split in half
// for double buffering, so a core can fill one buffer while its right
// neighbor still reads the other; sent/ready flag pairs per buffer half
// implement the same handshake as the non-blocking primitives.
//
// On the real (bug-afflicted) SCC the local MPB write costs 45 core
// cycles + 8 mesh cycles instead of 15 core cycles, which is why the
// paper measures only ~10% over the lightweight balanced version; set
// timing.Model.HardwareBugFixed to probe the paper's prediction that the
// fixed hardware would show "significantly higher speedups".

// mpbRing carries the per-call state of the MPB-direct ring.
type mpbRing struct {
	ue          *rcce.UE
	left, right int
	bufOff      [2]int // my two MPB buffer halves (global offsets)
	leftBufOff  [2]int // left neighbor's buffer halves
	// announced counts how often each of my buffer halves has been
	// handed to the right neighbor, to know when an overwrite must wait
	// for the consumed (ready) flag. waited counts how many of those
	// hand-offs have been acknowledged-and-cleared; the difference is
	// drained before the collective returns so no stale ready flag
	// leaks into the next call.
	announced [2]int
	waited    [2]int
}

func newMPBRing(ue *rcce.UE) mpbRing {
	comm := ue.Comm()
	p := ue.NumUEs()
	me := ue.ID()
	half := comm.DataBytes() / 2
	// Align the second half down to a line boundary.
	line := ue.Core().Chip().Model.CacheLineBytes
	half = half / line * line
	left, right := mod(me-1, p), mod(me+1, p)
	return mpbRing{
		ue:    ue,
		left:  left,
		right: right,
		bufOff: [2]int{
			comm.DataBase(me),
			comm.DataBase(me) + half,
		},
		leftBufOff: [2]int{
			comm.DataBase(left),
			comm.DataBase(left) + half,
		},
	}
}

// sentFlagToRight returns my sent flag for buffer half b in the right
// neighbor's MPB; readyFlagFromRight is where the right neighbor
// acknowledges consumption in my MPB. Mirrored helpers address the left
// neighbor's flags.
func (r *mpbRing) sentFlagToRight(b int) int {
	return r.ue.Comm().FlagAddr(r.right, r.ue.ID(), rcce.FlagMPBSent0+b)
}

func (r *mpbRing) readyFlagFromRight(b int) int {
	return r.ue.Comm().FlagAddr(r.ue.ID(), r.right, rcce.FlagMPBReady0+b)
}

func (r *mpbRing) sentFlagFromLeft(b int) int {
	return r.ue.Comm().FlagAddr(r.ue.ID(), r.left, rcce.FlagMPBSent0+b)
}

func (r *mpbRing) readyFlagToLeft(b int) int {
	return r.ue.Comm().FlagAddr(r.left, r.ue.ID(), rcce.FlagMPBReady0+b)
}

// reserveBuffer blocks until my buffer half b may be overwritten (the
// right neighbor has consumed its previous content), then marks it as
// about to be announced again.
func (r *mpbRing) reserveBuffer(b int) {
	core := r.ue.Core()
	if r.announced[b] > r.waited[b] {
		core.WaitFlag(r.readyFlagFromRight(b), 1)
		core.SetFlag(r.readyFlagFromRight(b), 0)
		r.waited[b]++
	}
}

// drain collects every acknowledgement still owed by the right neighbor
// so the pair flags are all zero when the collective returns (required
// for back-to-back calls).
func (r *mpbRing) drain() {
	core := r.ue.Core()
	for b := 0; b < 2; b++ {
		for r.announced[b] > r.waited[b] {
			core.WaitFlag(r.readyFlagFromRight(b), 1)
			core.SetFlag(r.readyFlagFromRight(b), 0)
			r.waited[b]++
		}
	}
}

// announce signals the right neighbor that buffer half b holds fresh
// data.
func (r *mpbRing) announce(b int) {
	r.ue.Core().SetFlag(r.sentFlagToRight(b), 1)
	r.announced[b]++
}

// consumeLeft waits for fresh data in the left neighbor's buffer half b.
// Call ackLeft after the data has been read.
func (r *mpbRing) consumeLeft(b int) {
	core := r.ue.Core()
	core.WaitFlag(r.sentFlagFromLeft(b), 1)
	core.SetFlag(r.sentFlagFromLeft(b), 0)
}

func (r *mpbRing) ackLeft(b int) {
	r.ue.Core().SetFlag(r.readyFlagToLeft(b), 1)
}

// allreduceMPB is the Sec. IV-D Allreduce. The reduce-scatter phase keeps
// partials in MPB buffers (the reduction reads the left neighbor's MPB
// directly and writes the local MPB); the allgather phase forwards
// finished blocks MPB-to-MPB while each core also lands them in its
// private result vector. Only reached on the full-chip, fault-free path
// (grp == nil, Recovery == nil).
func (x *Ctx) allreduceMPB(src, dst scc.Addr, n int, op Op) error {
	ue := x.ue
	core := ue.Core()
	m := core.Chip().Model
	p := ue.NumUEs()
	me := ue.ID()
	blocks := x.partitionFor(n, p, true) // Sec. IV-D builds on all prior optimizations
	if p == 1 {
		x.CopyPrivate(dst, src, n)
		return nil
	}
	if maxBlockLen(blocks)*8 > ue.Comm().DataBytes()/2 {
		// Blocks must fit a double-buffer half; fall back to the
		// lightweight balanced path for oversized vectors. The fallback
		// context runs the paper heuristic (Selector nil): a Fixed("mpb")
		// selector must not re-enter this function.
		cfg := x.cfg
		cfg.MPBDirect = false
		cfg.Selector = nil
		fallback := &Ctx{ue: ue, ep: x.ep, cfg: cfg, scratchLen: -1}
		return fallback.Allreduce(src, dst, n, op)
	}
	ring := newMPBRing(ue)
	// Each ring round still runs the lightweight handshake state machine
	// (post a send announcement, wait for the neighbor's flags), so the
	// per-round software cost of the lightweight primitives remains; the
	// MPB optimization removes only the private-memory staging copies.
	roundSoftware := m.OverheadLightweightPost + m.OverheadLightweightWait

	// --- Phase 1: reduce-scatter on MPBs ---
	// Round r: my partial for block (me-1-r) sits in buffer r%2 and is
	// consumed by the right neighbor; I combine the left neighbor's
	// buffer r%2 with my input block (me-2-r) into buffer (r+1)%2.
	for r := 0; r < p-1; r++ {
		core.OverheadCycles(roundSoftware)
		b := r % 2
		if r == 0 {
			// Seed: copy my raw input block (me-1) into buffer 0.
			seed := blocks[mod(me-1, p)]
			ring.reserveBuffer(0)
			ue.Put(src+scc.Addr(8*seed.Off), ring.bufOff[0], 8*seed.Len)
			ring.announce(0)
		}
		recvIdx := mod(me-2-r, p)
		rb := blocks[recvIdx]
		nb := (r + 1) % 2
		ring.consumeLeft(b)
		ring.reserveBuffer(nb)
		core.ReduceMPBToMPB(ring.leftBufOff[b], src+scc.Addr(8*rb.Off), ring.bufOff[nb], rb.Len, op)
		ring.ackLeft(b)
		// After the final round, buffer nb holds my finished block and
		// this announcement doubles as the first allgather handover.
		ring.announce(nb)
	}

	// My finished block lives in buffer B = (p-1)%2; land it in dst.
	finalBuf := (p - 1) % 2
	myBlock := blocks[me]
	ue.Get(ring.bufOff[finalBuf], dst+scc.Addr(8*myBlock.Off), 8*myBlock.Len)

	// --- Phase 2: allgather, forwarding blocks MPB-to-MPB ---
	// Round g: the left neighbor's buffer (B+g)%2 holds block
	// (me-1-g); I copy it into my buffer (B+g+1)%2 (to forward) and
	// into my private dst. The final round needs no forwarding.
	buf := scratchF64(&x.gatherBuf, maxBlockLen(blocks))
	for g := 0; g < p-1; g++ {
		core.OverheadCycles(roundSoftware)
		b := (finalBuf + g) % 2
		nb := (finalBuf + g + 1) % 2
		blkIdx := mod(me-1-g, p)
		blk := blocks[blkIdx]
		ring.consumeLeft(b)
		// One remote read of the block; the data then fans out to the
		// forwarding buffer and the private result without re-reading.
		v := buf[:blk.Len]
		core.MPBReadF64s(ring.leftBufOff[b], v)
		ring.ackLeft(b)
		if g < p-2 {
			ring.reserveBuffer(nb)
			core.MPBWriteF64s(ring.bufOff[nb], v)
			ring.announce(nb)
		}
		core.WriteF64s(dst+scc.Addr(8*blk.Off), v)
	}
	ring.drain()
	return nil
}
