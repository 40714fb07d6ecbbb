package rcce

import (
	"fmt"

	"scc/internal/metrics"
	"scc/internal/scc"
)

// This file implements the shared non-blocking request engine. iRCCE,
// the paper's lightweight primitives and RCKMPI's pairwise exchange all
// drive the same wire protocol - the difference the paper measures is
// purely the per-call software overhead (request lists and dynamic
// memory in iRCCE versus fixed slots in the lightweight library,
// Sec. IV-B) - so the protocol and its request storage live here once:
// each UE has one send slot and one receive slot, and every stack posts
// into them at its own NBCosts.

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

// Request is a pending non-blocking operation, held in one of its UE's
// two slots. Its state machine mirrors the chunked two-flag protocol of
// the blocking primitives, but posting returns as soon as the first
// local action is done, so a core can have a send and a receive in
// flight at once and overlap their copies (Fig. 5).
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

// busy reports whether the slot holds a request still in flight.
func (r *Request) busy() bool { return r.ue != nil && !r.done }

// PostSend begins a non-blocking send in the UE's send slot: it stages
// the first chunk into the local MPB, raises the sent flag and returns
// without waiting for the receiver. Completion (the ready flag, plus any
// further chunks) happens in WaitAll. The returned request is the
// slot itself, valid until the next PostSend.
func (u *UE) PostSend(costs NBCosts, dest int, addr scc.Addr, nBytes int) *Request {
	return u.post(costs, ReqSend, dest, addr, nBytes)
}

// PostRecv begins a non-blocking receive in the UE's receive slot. If
// the sender's chunk is already staged, the data is consumed immediately
// (and the request may complete on the spot); otherwise completion
// happens in WaitAll.
func (u *UE) PostRecv(costs NBCosts, src int, addr scc.Addr, nBytes int) *Request {
	return u.post(costs, ReqRecv, src, addr, nBytes)
}

// post (re)fills the slot of the given kind. A request still in flight
// there is completed first: the chunk staging area is a single region
// per core, so only one send can be on the wire, and a receive slot
// follows the same rule (iRCCE would queue the second request; the
// wire-level serialization is the same).
func (u *UE) post(costs NBCosts, kind ReqKind, peer int, addr scc.Addr, nBytes int) *Request {
	if peer == u.ID() {
		panic(fmt.Sprintf("rcce: UE %d posted a %s to itself", peer, kind))
	}
	if u.slots == nil {
		u.slots = new([2]Request)
	}
	r := &u.slots[kind]
	reg := u.core.Metrics()
	if r.busy() {
		if reg != nil {
			reg.Count(u.core.ID, metrics.CtrSlotDrains)
		}
		u.WaitAll(costs, r)
	}
	u.core.OverheadCycles(costs.Post)
	u.chargePartialLine(nBytes)
	*r = Request{kind: kind, ue: u, peer: peer, addr: addr, n: nBytes}
	if kind == ReqSend {
		r.stageChunk()
	} else {
		// Opportunistic probe, like iRCCE_irecv's immediate push.
		r.tryProgress(costs)
	}
	if reg != nil {
		reg.Count(u.core.ID, metrics.CtrReqsPosted)
		var inFlight int64
		for i := range u.slots {
			if u.slots[i].busy() {
				inFlight++
			}
		}
		reg.SetMax(u.core.ID, metrics.CtrPendingReqsMax, inFlight)
	}
	return r
}

// stageChunk copies the next chunk of a send into the local MPB and
// raises the sent flag.
func (r *Request) stageChunk() {
	u := r.ue
	chunk := u.comm.DataBytes()
	n := min(chunk, r.n-r.off)
	u.Put(r.addr+scc.Addr(r.off), u.comm.DataBase(u.ID()), n)
	u.core.SetFlag(u.comm.FlagAddr(r.peer, u.ID(), FlagSent), 1)
	r.staged = n
}

// pendingFlag returns the MPB flag offset whose value 1 unblocks the
// request's next transition.
func (r *Request) pendingFlag() int {
	u := r.ue
	if r.kind == ReqSend {
		return u.comm.FlagAddr(u.ID(), r.peer, FlagReady)
	}
	return u.comm.FlagAddr(u.ID(), r.peer, FlagSent)
}

// tryProgress advances the request as far as possible without blocking.
func (r *Request) tryProgress(costs NBCosts) {
	if r.done {
		return
	}
	u := r.ue
	u.core.OverheadCycles(costs.Progress)
	for !r.done {
		flag := r.pendingFlag()
		// One probe read; charged like any MPB access (local line).
		if u.core.ProbeFlag(flag) != 1 {
			break
		}
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
			u.core.SetFlag(u.comm.FlagAddr(r.peer, u.ID(), FlagReady), 1)
			r.off += n
			if r.off >= r.n {
				r.done = true
			}
		}
	}
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
	// UE (a post's slot drain happens before any wait), so reuse is safe
	// and the steady state allocates nothing.
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
