package rcce

import (
	"fmt"

	"scc/internal/metrics"
	"scc/internal/scc"
	"scc/internal/simtime"
)

// This file holds the one point-to-point chunk state machine and its
// non-blocking driver. Blocking RCCE, iRCCE, the paper's lightweight
// primitives, RCKMPI's pairwise exchange and the hardened protocol all
// run the two-flag chunk protocol of Fig. 3 (the hardened one with
// sequence numbers, checksums and bounded waits on top, see robust.go);
// what the paper measures between them is how they wait and what each
// call costs (Sec. IV-A/B). So every transfer is a Request in one of its
// UE's two slots, one for sends and one for receives, and three drivers
// advance it:
//
//   - Send/Recv (comm.go) block on the watched flag, then advance;
//   - PostSend/PostRecv/WaitAll probe, then advance, at a stack's NBCosts;
//   - runRobust (robust.go) waits on every pending op with one bounded
//     multi-flag wait.

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

// Request is one direction of a transfer, held in one of its UE's two
// slots: the chunked two-flag protocol as a state machine. A posted
// request returns as soon as its first local action is done, so a core
// can have a send and a receive in flight at once and overlap their
// copies (Fig. 5).
type Request struct {
	ue   *UE
	kind ReqKind
	peer int
	addr scc.Addr
	n    int // total bytes

	off    int  // bytes fully handed over
	chunks int  // chunks left (at least one, even for an empty message)
	seq    byte // the value the current chunk's flags carry; 1 unless hard
	hard   bool // the hardened protocol (robust.go)
	done   bool

	// The hardened protocol's retry state (robust.go).
	pol      Policy
	retries  int
	window   simtime.Duration
	deadline simtime.Time
}

// busy reports whether the slot holds a request still in flight.
func (r *Request) busy() bool { return r.ue != nil && !r.done }

// open fills the slot of the given kind for a new transfer; pol != nil
// selects the hardened protocol. A request still in flight there is
// completed first, at costs: the chunk staging area is a single region
// per core, so only one send can be on the wire, and a receive slot
// follows the same rule (iRCCE would queue the second request; the
// wire-level serialization is the same). Blocking and hardened
// transfers end before their call returns, so only a post leaves a
// slot busy. open charges no call overhead; each driver prices its own.
func (u *UE) open(costs NBCosts, kind ReqKind, pol *Policy, peer int, addr scc.Addr, n int) *Request {
	if peer == u.ID() {
		panic(fmt.Sprintf("rcce: UE %d: %v to itself", peer, kind))
	}
	r := &u.slots[kind]
	if r.busy() {
		if reg := u.core.Metrics(); reg != nil {
			reg.Count(u.core.ID, metrics.CtrSlotDrains)
		}
		u.WaitAll(costs, r)
	}
	chunk := u.comm.DataBytes()
	*r = Request{ue: u, kind: kind, peer: peer, addr: addr, n: n, chunks: max(1, (n+chunk-1)/chunk), seq: 1}
	if pol != nil {
		r.hard, r.pol, r.window = true, *pol, pol.Timeout
		if s := r.seqs().get(peer); s != 0 {
			r.seq = s
		}
	}
	return r
}

// flagOff returns the offset of one of the request's flags. For a send,
// "sent" and the checksum live in the peer's MPB (we write them);
// "ready" and "progress" live in ours (the peer writes them). A receive
// mirrors this.
func (r *Request) flagOff(role int) int {
	owner, writer := r.peer, r.ue.ID()
	if (role == FlagSent || role == FlagChk0) != (r.kind == ReqSend) {
		owner, writer = writer, owner
	}
	return r.ue.comm.FlagAddr(owner, writer, role)
}

// watch is the local flag whose value advances the request — the ready
// flag of a send, the sent flag of a receive — with the values that do:
// the chunk's sequence number, and on the hardened protocol also a NACK
// of it (to a send) or a duplicate of the previous chunk (to a receive).
func (r *Request) watch() scc.Flag {
	off, other := r.flagOff(FlagSent), prevSeq(r.seq)
	if r.kind == ReqSend {
		off, other = r.flagOff(FlagReady), r.seq|nackBit
	}
	if !r.hard {
		other = r.seq
	}
	return scc.Watch(off, r.seq, other)
}

// chunkLen is the length of the chunk in flight.
func (r *Request) chunkLen() int { return min(r.n-r.off, r.ue.comm.DataBytes()) }

// stage copies the current chunk of a send into the local MPB and
// announces it with the sent flag. A hardened chunk first writes its
// checksum into the sent-flag line (see writeSum).
func (r *Request) stage() {
	u := r.ue
	n := r.chunkLen()
	u.Put(r.addr+scc.Addr(r.off), u.comm.DataBase(u.ID()), n)
	if r.hard {
		r.writeSum(n)
	}
	u.core.SetFlag(r.flagOff(FlagSent), r.seq)
}

// advance consumes the watched flag's value v and takes the transition
// it selects. v is r.seq on the plain protocol; the hardened one also
// admits a NACK (to a send) and a duplicate of the previous chunk (to a
// receive), see Request.watch.
func (r *Request) advance(v byte) {
	u := r.ue
	u.core.SetFlag(r.watch().Off(), 0) // consume the flag (local line)
	if r.kind == ReqSend {
		if v == r.seq {
			r.completeChunk(r.chunkLen())
		} else { // NACK: the receiver saw a corrupt chunk
			r.retransmit()
		}
		return
	}
	if v != r.seq {
		// Duplicate of the previous chunk: our ACK was lost in flight.
		// Re-acknowledge; do not consume the data again.
		u.core.SetFlag(r.flagOff(FlagReady), v)
		u.core.SetFlag(r.flagOff(FlagProgress), v)
		u.stats.DupAcks++
		r.armDeadline()
		return
	}
	n := r.chunkLen()
	u.Get(u.comm.DataBase(r.peer), r.addr+scc.Addr(r.off), n)
	if r.hard && !r.verify(n) {
		// Corrupt, lost, or stale (another sequence number's) chunk:
		// NACK and wait for the retransmission of this sequence number.
		u.core.SetFlag(r.flagOff(FlagReady), r.seq|nackBit)
		u.stats.Nacks++
		r.armDeadline()
		return
	}
	u.core.SetFlag(r.flagOff(FlagReady), r.seq)
	if r.hard {
		u.core.SetFlag(r.flagOff(FlagProgress), r.seq)
	}
	r.completeChunk(n)
}

// completeChunk records one finished chunk of n bytes and either
// finishes the request or moves to the next chunk (staging it, for
// sends).
func (r *Request) completeChunk(n int) {
	u := r.ue
	r.off += n
	r.chunks--
	if r.hard {
		r.seq = nextSeq(r.seq)
		r.seqs().set(r.peer, r.seq)
	}
	verb := "sent %d/%d B to %02d"
	if r.kind == ReqRecv {
		verb = "recvd %d/%d B from %02d"
	}
	u.core.Note(simtime.Note3(verb, int64(r.off), int64(r.n), int64(r.peer)))
	if r.chunks == 0 {
		r.done = true
		return
	}
	if r.hard {
		r.retries = 0
		r.window = r.pol.Timeout
	}
	if r.kind == ReqSend {
		r.stage()
	}
	if r.hard {
		r.armDeadline()
	}
}

// PostSend begins a non-blocking send in the UE's send slot: it stages
// the first chunk into the local MPB, raises the sent flag and returns
// without waiting for the receiver. Completion (the ready flag, plus any
// further chunks) happens in WaitAll. The returned request is the
// slot itself, valid until the UE's next send.
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

// post opens the slot of the given kind at a stack's costs and takes
// the first step: a send stages its first chunk, a receive probes.
func (u *UE) post(costs NBCosts, kind ReqKind, peer int, addr scc.Addr, nBytes int) *Request {
	r := u.open(costs, kind, nil, peer, addr, nBytes)
	u.core.OverheadCycles(costs.Post)
	u.chargePartialLine(nBytes)
	if kind == ReqSend {
		r.stage()
	} else {
		// Opportunistic probe, like iRCCE_irecv's immediate push.
		r.tryProgress(costs)
	}
	if reg := u.core.Metrics(); reg != nil {
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

// tryProgress advances the request as far as it can without blocking:
// one probe of the watched flag per transition.
func (r *Request) tryProgress(costs NBCosts) {
	if r.done {
		return
	}
	u := r.ue
	u.core.OverheadCycles(costs.Progress)
	for !r.done {
		v := u.core.ProbeFlag(r.watch().Off()) // one MPB read (local line)
		if v != r.seq {
			break
		}
		r.advance(v)
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
	// UE (a slot drain happens before any wait), so reuse is safe and
	// the steady state allocates nothing.
	for {
		flags := u.waitFlags[:0]
		pending := u.waitPend[:0]
		for _, r := range reqs {
			if r == nil || r.done {
				continue
			}
			flags = append(flags, r.watch())
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
		idx, _, _ := u.core.WaitFlagsMatch(flags, 0) // a posted request's flags carry 1
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
