package rcce

import (
	"fmt"

	"scc/internal/metrics"
	"scc/internal/scc"
)

// This file implements the shared non-blocking request engine. Both the
// iRCCE library (package ircce) and the paper's lightweight primitives
// (package lwnb) drive the same wire protocol - the difference the paper
// measures is purely the per-call software overhead (request lists and
// dynamic memory in iRCCE versus fixed slots in the lightweight library,
// Sec. IV-B) - so the protocol lives here once and the two packages
// instantiate it with their own NBCosts.

// NBCosts parameterizes the software overhead of a non-blocking
// primitive implementation, in core cycles.
type NBCosts struct {
	// Post is charged by each isend/irecv invocation.
	Post int64
	// Wait is charged per request completion inside wait/waitall.
	Wait int64
	// Progress is charged per progress probe of a pending request
	// (testing flags, advancing the chunk state machine).
	Progress int64
}

// ReqKind distinguishes send and receive requests.
type ReqKind int

// Request kinds.
const (
	ReqSend ReqKind = iota
	ReqRecv
)

func (k ReqKind) String() string {
	if k == ReqSend {
		return "send"
	}
	return "recv"
}

// Request is a pending non-blocking operation. Its state machine mirrors
// the chunked two-flag protocol of the blocking primitives, but posting
// returns as soon as the first local action is done, so a core can have
// a send and a receive in flight at once and overlap their copies
// (Fig. 5).
type Request struct {
	kind ReqKind
	ue   *UE
	peer int
	addr scc.Addr
	n    int // total bytes

	off  int // bytes fully handed over
	done bool

	// staged reports, for sends, that the current chunk has been copied
	// into the local MPB and announced via the sent flag.
	staged int // bytes staged for the current chunk (send only)
}

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.done }

// PostSend begins a non-blocking send: it stages the first chunk into the
// local MPB, raises the sent flag and returns without waiting for the
// receiver. Completion (the ready flag, plus any further chunks) happens
// in Wait/WaitAll.
func (u *UE) PostSend(costs NBCosts, dest int, addr scc.Addr, nBytes int) *Request {
	return u.PostSendInto(new(Request), costs, dest, addr, nBytes)
}

// PostSendInto is PostSend with caller-owned request storage: r is
// overwritten and returned, so fixed-slot libraries (package lwnb)
// repost into the same record without allocating. The previous contents
// of r must not be an in-flight request.
func (u *UE) PostSendInto(r *Request, costs NBCosts, dest int, addr scc.Addr, nBytes int) *Request {
	if dest == u.ID() {
		panic(fmt.Sprintf("rcce: UE %d isend to itself", dest))
	}
	// The chunk staging area is a single region per core, so only one
	// send can be on the wire. A second post drains the first (iRCCE
	// would queue it; the wire-level serialization is the same).
	if u.activeSend != nil && !u.activeSend.done {
		if reg := u.core.Metrics(); reg != nil {
			reg.Count(u.core.ID, metrics.CtrSlotDrains)
		}
		u.WaitAll(costs, u.activeSend)
	}
	u.core.OverheadCycles(costs.Post)
	u.chargePartialLine(nBytes)
	if reg := u.core.Metrics(); reg != nil {
		reg.Count(u.core.ID, metrics.CtrReqsPosted)
	}
	*r = Request{kind: ReqSend, ue: u, peer: dest, addr: addr, n: nBytes}
	r.stageChunk()
	u.activeSend = r
	return r
}

// PostRecv begins a non-blocking receive. If the sender's chunk is
// already staged, the data is consumed immediately (and the request may
// complete on the spot); otherwise completion happens in Wait/WaitAll.
func (u *UE) PostRecv(costs NBCosts, src int, addr scc.Addr, nBytes int) *Request {
	return u.PostRecvInto(new(Request), costs, src, addr, nBytes)
}

// PostRecvInto is PostRecv with caller-owned request storage (see
// PostSendInto).
func (u *UE) PostRecvInto(r *Request, costs NBCosts, src int, addr scc.Addr, nBytes int) *Request {
	if src == u.ID() {
		panic(fmt.Sprintf("rcce: UE %d irecv from itself", src))
	}
	u.core.OverheadCycles(costs.Post)
	u.chargePartialLine(nBytes)
	if reg := u.core.Metrics(); reg != nil {
		reg.Count(u.core.ID, metrics.CtrReqsPosted)
	}
	*r = Request{kind: ReqRecv, ue: u, peer: src, addr: addr, n: nBytes}
	// Opportunistic probe, like iRCCE_irecv's immediate push.
	r.tryProgress(costs)
	return r
}

// stageChunk copies the next chunk of a send into the local MPB and
// raises the sent flag.
func (r *Request) stageChunk() {
	u := r.ue
	chunk := u.comm.DataBytes()
	n := min(chunk, r.n-r.off)
	u.Put(r.addr+scc.Addr(r.off), u.comm.DataBase(u.ID()), n)
	u.core.SetFlag(u.comm.FlagAddr(r.peer, u.ID(), flagSent), 1)
	r.staged = n
}

// pendingFlag returns the MPB flag offset whose value 1 unblocks the
// request's next transition.
func (r *Request) pendingFlag() int {
	u := r.ue
	if r.kind == ReqSend {
		return u.comm.FlagAddr(u.ID(), r.peer, flagReady)
	}
	return u.comm.FlagAddr(u.ID(), r.peer, flagSent)
}

// tryProgress advances the request as far as possible without blocking.
// It returns true if any transition fired.
func (r *Request) tryProgress(costs NBCosts) bool {
	if r.done {
		return false
	}
	u := r.ue
	u.core.OverheadCycles(costs.Progress)
	advanced := false
	for !r.done {
		flag := r.pendingFlag()
		// One probe read; charged like any MPB access (local line).
		if u.core.ProbeFlag(flag) != 1 {
			break
		}
		advanced = true
		u.core.SetFlag(flag, 0) // consume the flag (local line write)
		if r.kind == ReqSend {
			// Receiver consumed the staged chunk.
			r.off += r.staged
			r.staged = 0
			if r.off >= r.n {
				r.done = true
				break
			}
			r.stageChunk()
		} else {
			chunk := u.comm.DataBytes()
			n := min(chunk, r.n-r.off)
			u.Get(u.comm.DataBase(r.peer), r.addr+scc.Addr(r.off), n)
			u.core.SetFlag(u.comm.FlagAddr(r.peer, u.ID(), flagReady), 1)
			r.off += n
			if r.off >= r.n {
				r.done = true
			}
		}
	}
	return advanced
}

// Wait blocks until the request completes, making progress on its state
// machine as flags arrive.
func (u *UE) Wait(costs NBCosts, r *Request) {
	u.WaitAll(costs, r)
}

// WaitAll blocks until every request completes. Progress is made on
// whichever request's flag fires first (via a multi-flag wait), so
// cyclic communication patterns cannot deadlock regardless of posting
// order - the property Sec. IV-A relies on.
func (u *UE) WaitAll(costs NBCosts, reqs ...*Request) {
	for _, r := range reqs {
		if r != nil && r.ue != u {
			panic("rcce: WaitAll on a foreign UE's request")
		}
	}
	// The round scratch lives on the UE: WaitAll cannot nest within one
	// UE (the PostSendInto drain happens before any wait), so reuse is
	// safe and the steady state allocates nothing.
	for {
		flags := u.waitFlags[:0]
		pending := u.waitPend[:0]
		for _, r := range reqs {
			if r == nil || r.done {
				continue
			}
			flags = append(flags, r.pendingFlag())
			pending = append(pending, r)
		}
		u.waitFlags, u.waitPend = flags, pending
		if len(pending) == 0 {
			break
		}
		u.core.OverheadCycles(costs.Wait)
		if reg := u.core.Metrics(); reg != nil {
			reg.Count(u.core.ID, metrics.CtrReqWaitRounds)
		}
		idx := u.core.WaitFlagAny(flags, 1)
		pending[idx].tryProgress(costs)
		// Opportunistically push the others, too (their flags may have
		// fired while we were blocked).
		for i, r := range pending {
			if i != idx {
				r.tryProgress(costs)
			}
		}
	}
}
