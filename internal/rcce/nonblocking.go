package rcce

import (
	"encoding/binary"
	"fmt"

	"scc/internal/metrics"
	"scc/internal/scc"
	"scc/internal/simtime"
)

// This file holds the one point-to-point chunk state machine and the
// wait for posted and hardened requests. Blocking RCCE, RCKMPI's
// channel, iRCCE, the paper's lightweight primitives and the hardened
// protocol all run the two-flag chunk protocol of Fig. 3 (the hardened
// one with sequence numbers, checksums and bounded waits on top, see
// robust.go); what the paper measures between them is how they wait and
// what each call costs (Sec. IV-A/B). So every transfer is a Request in
// one of its UE's two slots, one for sends and one for receives. The
// blocking driver (comm.go) runs a whole message as the request's steps;
// a posted or hardened send stages its first chunk the same way, and
// WaitAll runs every round of its wait as steps too (charge, flag wait,
// probe, advance, timeout), so each resumes its process once.

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
type ReqKind uint8

// Request kinds.
const (
	ReqSend ReqKind = iota
	ReqRecv
)

func (k ReqKind) String() string { return [...]string{"send", "recv"}[k] }

// Request is one direction of a transfer in one of its UE's two slots:
// the two-flag chunk protocol as a state machine whose transitions run
// as its steps between the core's accesses (scc.Core.Run). A posted
// request returns as soon as its first local action is done, so a core
// can overlap a send's and a receive's copies (Fig. 5).
type Request struct {
	ue   *UE
	peer int
	addr scc.Addr
	n    int // total bytes

	off      int     // bytes fully handed over
	chunks   int32   // chunks left (at least one, even for an empty message)
	sum      uint32  // the hardened chunk's checksum, between computing and writing or checking it
	seq      byte    // the value the current chunk's flags carry; 1 unless hard
	v        byte    // the value advance consumed, or the one an acknowledgement writes
	pc       reqStep // the request's next step
	row      Row
	kind     ReqKind
	blocking bool // the blocking driver: a transition goes on to wait for the next
	hard     bool // the hardened protocol (robust.go)
	backoff  bool // the next deadline is jittered: its window has widened (robust.go)
	failed   bool // the retry budget ran out (robust.go)
	done     bool
	t0       simtime.Time // when the put, get or wait in flight began

	// The hardened protocol's retry state (robust.go).
	pol Policy
	ladder
	deadline simtime.Time
}

// reqStep is what a request does once its core's access or wait ends.
type reqStep uint8

const (
	reqIdle       reqStep = iota // the transition is over: resume the process
	reqPut                       // the latency before a put is applied: stage the chunk
	reqStaged                    // the chunk's write is paid
	reqSum                       // the checksum's write or read is paid (hard)
	reqSent                      // the sent flag's write is paid
	reqWaited                    // the watched flag matched (blocking driver)
	reqConsumed                  // the watched flag's clear is paid
	reqCopied                    // the chunk's read is paid
	reqGot                       // the latency after a get is applied
	reqAcked                     // the ready flag's write is paid
	reqProgressed                // the progress byte's write is paid (hard)
	reqProbed                    // a push's read of the watched flag is paid
	reqExpired                   // a timeout is charged (hard; robust.go)
	reqArmed                     // a hardened receive's start is flushed: arm its deadline
)

// busy reports whether the slot holds a request still in flight.
func (r *Request) busy() bool { return r.ue != nil && !r.done }

// open fills the slot of the given kind for a new transfer priced by
// row; pol != nil selects the hardened protocol. A post still in flight
// there is completed first, at costs: the chunk staging area is a single
// region per core, so only one send can be on the wire, and a receive
// slot follows the same rule (iRCCE would queue the second request; the
// wire-level serialization is the same). Each driver prices its call.
func (u *UE) open(row Row, costs NBCosts, kind ReqKind, pol *Policy, peer int, addr scc.Addr, n int) *Request {
	if peer == u.ID() {
		panic(fmt.Sprintf("rcce: UE %d: %v to itself", peer, kind))
	}
	r := &u.slots[kind]
	if r.busy() {
		if reg := u.core.Metrics(); reg != nil {
			reg.Count(u.core.ID, metrics.CtrSlotDrains)
		}
		_ = u.WaitAll(costs, r) // only a post leaves a slot busy, and its wait cannot fail
	}
	chunk := u.comm.rows[row].chunk
	*r = Request{ue: u, kind: kind, peer: peer, addr: addr, n: n, chunks: int32(max(1, (n+chunk-1)/chunk)),
		seq: 1, row: row}
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
func (r *Request) chunkLen() int { return min(r.n-r.off, r.costs().chunk) }

// costs is the request's pricing row.
func (r *Request) costs() *rowCosts { return &r.ue.comm.rows[r.row] }

// run carries the transition st began from process code to its end, as
// the steps of the UE's waiter.
func (r *Request) run(st simtime.Step) { r.ue.core.Run((*waiter)(r.ue), r.ue.waitNext(st)) }

// String names the flag wait the request's core is in.
func (r *Request) String() string { return r.ue.core.Waiting() }

// step takes step pc and returns the core step it starts.
func (r *Request) step() simtime.Step {
	u, c := r.ue, r.ue.core
	n, at := r.chunkLen(), r.addr+scc.Addr(r.off)
	var sum [4]byte
	switch r.pc {
	case reqPut:
		r.t0, r.pc = c.Proc().Now(), reqStaged
		c.OverheadCycles(r.costs().window) // the channel's progress engine, per chunk
		return u.beginPut(r.row, at, u.comm.DataBase(u.ID()), n)
	case reqStaged:
		u.endPut(r.row, r.t0, at, u.comm.DataBase(u.ID()), n)
		if r.hard { // the checksum goes into the sent-flag line first
			r.sum = r.checksum(n)
			return r.access(reqSum, r.flagOff(FlagChk0), 4, false)
		}
		return r.access(reqSent, r.flagOff(FlagSent), 1, false)
	case reqSum:
		if r.kind == ReqSend {
			binary.LittleEndian.PutUint32(sum[:], r.sum)
			c.EndWrite(r.flagOff(FlagChk0), sum[:])
			return r.access(reqSent, r.flagOff(FlagSent), 1, false)
		}
		if c.EndRead(r.flagOff(FlagChk0), sum[:]); binary.LittleEndian.Uint32(sum[:]) != r.sum {
			// Corrupt, lost, or stale (another sequence number's) chunk:
			// NACK and wait for the retransmission of this sequence number.
			return r.ack(r.seq | nackBit)
		}
		return r.ack(r.seq)
	case reqSent:
		if c.EndSetFlag(r.flagOff(FlagSent), r.seq); r.hard {
			r.armDeadline()
		}
		return r.then()
	case reqWaited:
		_, v, _ := c.EndWait(r.t0)
		return r.advance(v)
	case reqConsumed:
		c.EndSetFlag(r.watch().Off(), 0)
		switch {
		case r.kind == ReqSend && r.v == r.seq:
			return r.completeChunk(n)
		case r.kind == ReqSend: // NACK: the receiver saw a corrupt chunk
			r.widen()
			return r.retransmit()
		case r.v != r.seq: // the previous chunk again: our ACK was lost, re-acknowledge it
			return r.ack(r.v)
		}
		r.t0, r.pc = c.Proc().Now(), reqCopied
		return u.beginGet(r.row, u.comm.DataBase(r.peer), n)
	case reqCopied:
		u.endGet(r.row, u.comm.DataBase(r.peer), at, n)
		if r.pc = reqGot; u.recording(r.row) {
			return c.Flush() // the get's clock reads after its private writes
		}
	case reqGot:
		u.account(r.row, "get", r.t0, metrics.CtrGets, metrics.CtrGetTicks)
		if r.hard { // verify against the checksum the sender wrote beside it
			r.sum = r.checksum(n)
			return r.access(reqSum, r.flagOff(FlagChk0), 4, true)
		}
		return r.ack(r.seq)
	case reqAcked, reqProgressed: // the ready flag, then (hard) the progress byte
		role := FlagReady
		if r.pc == reqProgressed {
			role = FlagProgress
		}
		c.EndSetFlag(r.flagOff(role), r.v)
		switch {
		case r.v&nackBit != 0:
			u.stats.Nacks++
		case r.hard && role == FlagReady:
			return r.access(reqProgressed, r.flagOff(FlagProgress), 1, false)
		case r.v != r.seq: // a duplicate, re-acknowledged
			u.stats.DupAcks++
		default:
			return r.completeChunk(n)
		}
		r.armDeadline() // for this sequence number's (re)transmission
		return r.then()
	case reqProbed:
		if c.EndProbe(r.watch().Off()) == r.seq {
			return r.advance(r.seq)
		}
		r.pc = reqIdle
	case reqExpired:
		return r.retry()
	case reqArmed:
		r.pc = reqIdle
		r.armDeadline()
	}
	return simtime.Resume()
}

// access starts the core's access of n bytes at off, after which the
// request takes step pc.
func (r *Request) access(pc reqStep, off, n int, read bool) simtime.Step {
	r.pc = pc
	return r.ue.core.BeginAccess(off, n, read)
}

// stage begins copying the current chunk of a send into the local MPB,
// which the sent flag then announces. A recorded put reads the clock
// at its start, after the latency before it.
func (r *Request) stage() simtime.Step {
	if r.pc = reqPut; r.ue.recording(r.row) {
		return r.ue.core.Flush()
	}
	return simtime.Resume()
}

// advance consumes the watched flag's value v (in the local MPB) and
// takes the transition it selects: r.seq, or on the hardened protocol
// also a NACK (to a send) or the previous chunk again (to a receive).
func (r *Request) advance(v byte) simtime.Step {
	r.v = v
	return r.access(reqConsumed, r.watch().Off(), 1, false)
}

// ack writes v into the ready flag: the chunk's sequence number, its
// NACK, or the previous chunk's again.
func (r *Request) ack(v byte) simtime.Step {
	r.v = v
	return r.access(reqAcked, r.flagOff(FlagReady), 1, false)
}

// then ends a transition: a blocking request goes on to wait for the
// next (a receive paying its row's per-chunk charge first), one a wait
// is pushing probes its flag again, any other ends.
func (r *Request) then() simtime.Step {
	if r.ue.wait.pc == waitPush && !r.done {
		return r.access(reqProbed, r.watch().Off(), 1, true)
	}
	if !r.blocking || r.done {
		r.pc = reqIdle
		return simtime.Resume()
	}
	if r.kind == ReqRecv {
		r.ue.core.OverheadCycles(r.costs().window)
	}
	var st simtime.Step
	r.pc = reqWaited
	r.t0, st = r.ue.core.BeginWait(r.watch())
	return st
}

// completeChunk records one finished chunk of n bytes and either
// finishes the request or moves to the next chunk (staging it, for
// sends).
func (r *Request) completeChunk(n int) simtime.Step {
	r.off += n
	r.chunks--
	if r.hard {
		r.seq = nextSeq(r.seq)
		r.seqs().set(r.peer, r.seq)
		r.retries, r.window = 0, r.pol.Timeout
		r.armDeadline() // a send's is armed again once its next chunk is staged
	}
	if r.costs().recorded {
		verb := "sent %d/%d B to %02d"
		if r.kind == ReqRecv {
			verb = "recvd %d/%d B from %02d"
		}
		r.ue.core.Note(simtime.Note3(verb, int64(r.off), int64(r.n), int64(r.peer)))
	}
	if r.done = r.chunks == 0; !r.done && r.kind == ReqSend {
		return r.stage()
	}
	return r.then()
}

// PostSend begins a non-blocking send in the UE's send slot: it stages
// the first chunk, raises the sent flag and returns; WaitAll completes
// it. The returned request is the slot, valid until the UE's next send.
func (u *UE) PostSend(costs NBCosts, dest int, addr scc.Addr, nBytes int) *Request {
	return u.post(costs, ReqSend, dest, addr, nBytes)
}

// PostRecv begins a non-blocking receive in the UE's receive slot: a
// chunk already staged is consumed at once, the rest in WaitAll.
func (u *UE) PostRecv(costs NBCosts, src int, addr scc.Addr, nBytes int) *Request {
	return u.post(costs, ReqRecv, src, addr, nBytes)
}

// post opens the slot of the given kind at a stack's costs and takes
// the first step: a send stages its first chunk, a receive is pushed
// once, like iRCCE_irecv's immediate push.
func (u *UE) post(costs NBCosts, kind ReqKind, peer int, addr scc.Addr, nBytes int) *Request {
	r := u.open(RowRCCE, costs, kind, nil, peer, addr, nBytes)
	u.core.OverheadCycles(costs.Post)
	u.chargePartialLine(RowRCCE, nBytes)
	if kind == ReqSend {
		r.run(r.stage())
	} else {
		u.wait = waitState{kinds: [2]ReqKind{kind}, n: 1, pc: waitPush, post: true, progress: costs.Progress}
		u.core.Run((*waiter)(u), u.waitNext(simtime.Resume()))
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

// WaitAll blocks until every request completes. Progress is made on
// whichever request's flag fires first (via a multi-flag wait), so
// cyclic communication patterns cannot deadlock regardless of posting
// order - the property Sec. IV-A relies on. A posted request probes its
// flag again before it advances, and the other is pushed after it;
// hardened ones (robust.go) bound the wait by their earliest deadline
// and advance by the value it matched. A retry budget that runs out
// abandons every request (marked done, so a later post drains none) and
// returns its error. Every round runs as the UE's waiter's steps, so the
// process resumes once.
func (u *UE) WaitAll(costs NBCosts, reqs ...*Request) error {
	return u.waitAll(waitRound, costs, reqs...)
}

// waitAll runs a wait from step pc: waitRound, or waitStart for
// hardened requests just opened.
func (u *UE) waitAll(pc waitStep, costs NBCosts, reqs ...*Request) error {
	w := &u.wait
	*w = waitState{pc: pc, wait: costs.Wait, progress: costs.Progress, first: -1}
	for _, r := range reqs {
		if r == nil {
			continue
		} else if r != &u.slots[r.kind] || w.n == 2 {
			panic("rcce: WaitAll takes at most two requests, both its UE's")
		}
		w.kinds[w.n], w.n = r.kind, w.n+1
	}
	u.core.Run((*waiter)(u), u.waitNext(simtime.Resume()))
	var err error
	for _, k := range w.kinds[:w.n] { // what an error abandoned
		if r := &u.slots[k]; r.failed {
			err = fmt.Errorf("%w: %v peer %02d at byte %d/%d (%d retries)",
				ErrUnreachable, r.kind, r.peer, r.off, r.n, r.pol.MaxRetries)
		}
		u.slots[k].done = true
	}
	if w.first >= 0 {
		u.stats.Recovery += u.core.Now() - w.first
	}
	return err
}

// waitState is the UE's wait in progress: WaitAll's rounds, or a
// receive post's push. A UE has two slots, so a wait has at most two
// requests, kept by slot in the caller's order (a slot listed twice is
// watched twice, as by any list wait).
type waitState struct {
	flags          [2]scc.Flag // the pending requests' watched flags
	kinds          [2]ReqKind  // the pending requests' slots
	n              uint8       // pending requests
	pc             waitStep
	j              uint8        // the round's next push or timeout
	match          uint8        // the request whose flag the round matched: pushed first
	post           bool         // a post's push: the wait ends after it
	wait, progress int64        // the stack's NBCosts
	at             simtime.Time // when the round's wait began, or timed out
	first          simtime.Time // the first timeout, or -1
}

// waitStep is what the wait does once the core's access, flush or flag
// wait, or a request's transition, has ended.
type waitStep uint8

const (
	waitIdle    waitStep = iota // the wait is over: resume the process
	waitRound                   // charge a round, and wait on the pending requests' flags
	waitMatched                 // the round's wait ended
	waitPush                    // push the round's next request
	waitExpire                  // time out the round's next request, if its deadline passed
	waitStart                   // start the next hardened request: stage a send, arm a receive
)

// waiter is the UE's core's simtime.Cont while a transition or a wait
// runs; the conversion keeps Wake off UE's method set and allocates
// nothing.
type waiter UE

func (k *waiter) Wake() simtime.Step { u := (*UE)(k); return u.waitNext(u.core.Step()) }

// String names the flag wait the core is parked in (deadlock reports).
func (k *waiter) String() string { return k.core.Waiting() }

// waitNext returns st unless it resumes the process; then it takes the
// steps of the transition in flight (at most one slot has one) and the
// wait's own until one starts a core step that sleeps or parks, both
// are over, or the core died.
func (u *UE) waitNext(st simtime.Step) simtime.Step {
	for st == simtime.Resume() && !u.core.Dead() {
		switch {
		case u.slots[0].pc != reqIdle:
			st = u.slots[0].step()
		case u.slots[1].pc != reqIdle:
			st = u.slots[1].step()
		case u.wait.pc == waitIdle:
			return st
		default:
			st = u.waitStep()
		}
	}
	return st
}

// waitStep takes the wait's step pc and returns the core step it starts.
func (u *UE) waitStep() simtime.Step {
	w, c := &u.wait, u.core
	switch w.pc {
	case waitRound: // on the requests still pending
		n, until := uint8(0), simtime.Never // a posted request's flags carry 1: unbounded
		for _, k := range w.kinds[:w.n] {
			if r := &u.slots[k]; !r.done {
				w.kinds[n], w.flags[n] = k, r.watch()
				if n++; r.hard {
					until = min(until, r.deadline)
				}
			}
		}
		if w.n, w.pc = n, waitIdle; n == 0 {
			return simtime.Resume()
		}
		c.OverheadCycles(w.wait)
		if reg := c.Metrics(); reg != nil && until == simtime.Never {
			reg.Count(c.ID, metrics.CtrReqWaitRounds)
		}
		var st simtime.Step
		w.pc = waitMatched
		w.at, st = c.BeginWaitAny(w.flags[:n], until)
		return st
	case waitMatched:
		i, v, ok := c.EndWait(w.at)
		if r := &u.slots[w.kinds[i]]; ok && r.hard {
			w.pc = waitRound
			return r.advance(v)
		}
		w.pc, w.j, w.match = waitPush, 0, uint8(i)
		if !ok {
			w.pc, w.match, w.at = waitExpire, 0, c.Proc().Now()
			if w.first < 0 {
				w.first = w.at
			}
		}
		return simtime.Resume()
	}
	if w.j == w.n {
		w.pc = waitRound
		if w.post {
			w.pc = waitIdle
		}
		return simtime.Resume()
	}
	r := &u.slots[w.kinds[w.j^w.match]]
	w.j++
	switch {
	case r.done:
	case w.pc == waitStart && r.kind == ReqSend:
		return r.stage() // arms the deadline once staged
	case w.pc == waitStart:
		r.pc = reqArmed
		return c.Flush()
	case w.pc == waitExpire:
		if w.at >= r.deadline {
			return r.expire()
		}
	default:
		c.OverheadCycles(w.progress)
		return r.access(reqProbed, r.watch().Off(), 1, true)
	}
	return simtime.Resume()
}
