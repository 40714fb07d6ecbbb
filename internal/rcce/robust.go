package rcce

import (
	"encoding/binary"
	"errors"
	"fmt"

	"scc/internal/scc"
	"scc/internal/simtime"
)

// This file implements the hardened (self-recovering) point-to-point
// protocol. The plain two-flag protocol of comm.go assumes a perfect
// chip: one lost flag write hangs both peers forever. The hardened
// variant survives lost and corrupted MPB traffic:
//
//   - Flags carry sequence numbers (1..127) instead of 0/1, so a
//     duplicate chunk is recognized and re-acknowledged, not re-consumed.
//   - Every chunk travels with an FNV-1a checksum in the sent-flag line
//     that authenticates (payload, epoch, sequence number); a mismatch is
//     NACKed (ready = seq|0x80) and the chunk is re-staged. The sequence
//     number is part of the sum because payload and checksum are two
//     separate bulk writes: were both lost, the staging region and the
//     checksum of the previous chunk would still verify against each
//     other, and only the sequence number tells them from fresh data.
//   - All waits are bounded. On timeout the sender probes the receiver's
//     progress byte (the last consumed sequence number): if it equals the
//     outstanding chunk the ACK was lost and the chunk is complete;
//     otherwise the chunk is retransmitted with exponential backoff.
//
// Every defensive action is priced through the timing model (checksum
// cycles, timeout checks, retransmit staging at normal Put cost), so
// recovery latency is a measured quantity.

// ErrUnreachable is returned when the retry budget for one peer is
// exhausted — the peer is presumed dead (or unreachable mid-protocol).
var ErrUnreachable = errors.New("rcce: peer unreachable, retries exhausted")

// Backoff multiplies a hardened wait's window after each timeout.
const Backoff = 2

// Policy bounds the hardened protocol's waits and retries.
type Policy struct {
	// Timeout is the initial bounded-wait window per chunk handshake;
	// each timeout widens it by Backoff.
	Timeout simtime.Duration
	// MaxRetries is the per-chunk retry budget before ErrUnreachable.
	MaxRetries int
	// Jitter spreads the retransmit deadlines of concurrent peers: each
	// backed-off window is stretched by up to Jitter/16 of itself, keyed
	// deterministically by (self, peer, sequence, retry) — never by wall
	// clock — so same-seed runs stay bit-identical while synchronized
	// retransmit storms after a link stall de-correlate. 0 disables
	// jitter (the legacy behavior); 4 stretches windows by up to 25%.
	Jitter int
}

// JitterOf returns the deterministic window stretch for one retry of one
// peer pairing: window * (h mod (Jitter+1)) / 16 with h an FNV-1a mix of
// the identifying tuple. Pure function of its arguments — no clocks, no
// global state — so determinism is preserved by construction.
func (p Policy) JitterOf(window simtime.Duration, self, peer int, seq byte, try int) simtime.Duration {
	if p.Jitter <= 0 {
		return 0
	}
	h := uint32(2166136261)
	for _, v := range [4]uint32{uint32(self), uint32(peer), uint32(seq), uint32(try)} {
		h ^= v
		h *= 16777619
	}
	steps := uint32(p.Jitter) + 1
	return window * simtime.Duration(h%steps) / 16
}

// DefaultPolicy returns the policy used by the fault benchmarks: a 300 µs
// initial window (comfortably above one fault-free chunk handshake),
// doubling per retry, eight retries.
func DefaultPolicy() Policy {
	return Policy{Timeout: simtime.Microseconds(300), MaxRetries: 8}
}

func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.Timeout <= 0 {
		p.Timeout = d.Timeout
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = d.MaxRetries
	}
	return p
}

// RecoveryStats counts the hardened protocol's defensive actions on one
// UE. Recovery is the virtual time spent past the first timeout of each
// operation — the latency attributable to fault handling. A give-up is a
// retry budget running out (the op or barrier returns ErrUnreachable):
// the in-band detection signal of the self-healing runtime.
type RecoveryStats struct {
	Timeouts    int64
	Retransmits int64
	Nacks       int64 // checksum mismatches NACKed by this receiver
	DupAcks     int64 // duplicate chunks re-acknowledged
	LostAcks    int64 // completions recovered via the progress byte
	Recovery    simtime.Duration
	GiveUps     int64        // retry budgets exhausted
	FirstGiveUp simtime.Time // the earliest give-up; valid only when GiveUps > 0
}

// Add accumulates s2 into s, keeping the earlier first give-up.
func (s *RecoveryStats) Add(s2 RecoveryStats) {
	s.Timeouts += s2.Timeouts
	s.Retransmits += s2.Retransmits
	s.Nacks += s2.Nacks
	s.DupAcks += s2.DupAcks
	s.LostAcks += s2.LostAcks
	s.Recovery += s2.Recovery
	if s2.GiveUps > 0 && (s.GiveUps == 0 || s2.FirstGiveUp < s.FirstGiveUp) {
		s.FirstGiveUp = s2.FirstGiveUp
	}
	s.GiveUps += s2.GiveUps
}

// giveUp records an exhausted retry budget at the current virtual time.
func (u *UE) giveUp() {
	if u.stats.GiveUps == 0 {
		u.stats.FirstGiveUp = u.core.Now()
	}
	u.stats.GiveUps++
}

// Recovery returns the UE's accumulated recovery statistics.
func (u *UE) Recovery() RecoveryStats { return u.stats }

// Sequence numbers occupy 1..127; 0 means "consumed / idle" and the top
// bit turns an ACK value into a NACK.
const (
	seqMax  = 0x7F
	nackBit = 0x80
)

func nextSeq(s byte) byte {
	s++
	if s > seqMax {
		s = 1
	}
	return s
}

func prevSeq(s byte) byte {
	if s <= 1 {
		return seqMax
	}
	return s - 1
}

// chunkSum is the per-chunk checksum: FNV-1a (32-bit) over the chunk's
// sequence number followed by its payload, salted with the epoch. Sender
// and receiver both compute it over their private-memory copy.
func chunkSum(seq byte, payload []byte, epochSalt uint32) uint32 {
	h := (uint32(2166136261) ^ uint32(seq)) * 16777619
	for _, c := range payload {
		h ^= uint32(c)
		h *= 16777619
	}
	return h ^ epochSalt
}

// robustOp is one direction of a hardened transfer: a chunked state
// machine with bounded waits. Send and receive directions share the
// engine (runRobust) so a full-duplex exchange interleaves both without
// deadlock.
type robustOp struct {
	u    *UE
	pol  Policy
	kind ReqKind
	peer int
	addr scc.Addr
	n    int

	off      int  // bytes completed
	seq      byte // sequence number of the chunk in flight / expected
	chunks   int  // chunks remaining (>= 1 even for zero-byte messages)
	retries  int
	window   simtime.Duration
	deadline simtime.Time
	done     bool
}

// initRobustOp (re)initializes caller-owned op storage. The public
// entry points pass the UE's opSend/opRecv fields, so a steady state of
// robust transfers allocates no op records: a UE drives at most one
// robust operation per direction at a time.
func (u *UE) initRobustOp(r *robustOp, kind ReqKind, pol Policy, peer int, addr scc.Addr, n int) *robustOp {
	if peer == u.ID() {
		panic(fmt.Sprintf("rcce: UE %d robust %v with itself", peer, kind))
	}
	seqm := &u.sendSeq
	if kind == ReqRecv {
		seqm = &u.recvSeq
	}
	seq := seqm.get(peer)
	if seq == 0 {
		seq = 1
	}
	cap := u.comm.DataBytes()
	chunks := (n + cap - 1) / cap
	if chunks < 1 {
		chunks = 1
	}
	*r = robustOp{
		u: u, pol: pol, kind: kind, peer: peer, addr: addr, n: n,
		seq: seq, chunks: chunks, window: pol.Timeout,
	}
	return r
}

// flagOff returns the offset of one of the op's flags. For a send,
// "sent" and the checksum live in the peer's MPB (we write them);
// "ready" and "progress" live in ours (the peer writes them). A receive
// mirrors this.
func (r *robustOp) flagOff(role int) int {
	owner, writer := r.peer, r.u.ID()
	if (role == FlagSent || role == FlagChk0) != (r.kind == ReqSend) {
		owner, writer = writer, owner
	}
	return r.u.comm.FlagAddr(owner, writer, role)
}

// watchOff is the local flag whose change can advance this op.
func (r *robustOp) watchOff() int {
	if r.kind == ReqSend {
		return r.flagOff(FlagReady)
	}
	return r.flagOff(FlagSent)
}

// match reports whether a watched-flag value advances this op.
func (r *robustOp) match(v byte) bool {
	if r.kind == ReqSend {
		return v == r.seq || v == r.seq|nackBit
	}
	return v == r.seq || v == prevSeq(r.seq)
}

func (r *robustOp) chunkLen() int {
	n := r.n - r.off
	if cap := r.u.comm.DataBytes(); n > cap {
		n = cap
	}
	return n
}

func (r *robustOp) armDeadline() {
	r.deadline = r.u.core.Now() + r.window
}

func (r *robustOp) backoff() {
	r.window *= Backoff
	r.deadline = r.u.core.Now() + r.window +
		r.pol.JitterOf(r.window, r.u.ID(), r.peer, r.seq, r.retries)
}

// chargeChecksum prices checksumming n payload bytes (minimum one line).
func (r *robustOp) chargeChecksum(n int) {
	m := r.u.core.Chip().Model
	lines := int64(m.Lines(n))
	if lines < 1 {
		lines = 1
	}
	r.u.core.OverheadCycles(m.ChecksumPerLineCoreCycles * lines)
}

// stage copies the current chunk into the peer's staging region along
// with its checksum, then announces it with the sequence-valued sent
// flag. The checksum is computed over the private-memory source and
// covers the sequence number, so a corrupted write, a lost write, and
// the loss of both writes (which leaves the previous chunk and its own
// checksum in place) all fail verification on the receiver.
func (r *robustOp) stage() {
	u := r.u
	n := r.chunkLen()
	u.Put(r.addr+scc.Addr(r.off), u.comm.DataBase(u.ID()), n)
	r.chargeChecksum(n)
	sum := chunkSum(r.seq, u.core.PrivBytes(r.addr+scc.Addr(r.off), n), u.epochSalt)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], sum)
	u.core.MPBWrite(r.flagOff(FlagChk0), b[:])
	u.core.SetFlag(r.flagOff(FlagSent), r.seq)
}

// completeChunk records one finished chunk and either finishes the op or
// moves to the next chunk (staging it, for sends).
func (r *robustOp) completeChunk(n int) {
	u := r.u
	r.off += n
	r.chunks--
	seqm := &u.sendSeq
	verb := "robust sent %d/%d B peer %02d"
	if r.kind == ReqRecv {
		seqm = &u.recvSeq
		verb = "robust recvd %d/%d B peer %02d"
	}
	r.seq = nextSeq(r.seq)
	seqm.set(r.peer, r.seq)
	u.core.Note(simtime.Note3(verb, int64(r.off), int64(r.n), int64(r.peer)))
	if r.chunks == 0 {
		r.done = true
		return
	}
	r.retries = 0
	r.window = r.pol.Timeout
	if r.kind == ReqSend {
		r.stage()
	}
	r.armDeadline()
}

// retransmit re-stages the chunk in flight after a timeout or NACK.
func (r *robustOp) retransmit() {
	u := r.u
	u.core.OverheadCycles(u.core.Chip().Model.OverheadRetransmit)
	u.stats.Retransmits++
	r.stage()
	r.backoff()
}

// advance consumes one matched watched-flag value.
func (r *robustOp) advance(v byte) {
	u := r.u
	if r.kind == ReqSend {
		u.core.SetFlag(r.flagOff(FlagReady), 0) // consume the ACK/NACK (local line)
		if v == r.seq {
			r.completeChunk(r.chunkLen())
		} else { // NACK: the receiver saw a corrupt chunk
			r.retransmit()
		}
		return
	}
	// Receive side.
	u.core.SetFlag(r.flagOff(FlagSent), 0) // consume the announcement (local line)
	if v == prevSeq(r.seq) && v != r.seq {
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
	r.chargeChecksum(n)
	sum := chunkSum(r.seq, u.core.PrivBytes(r.addr+scc.Addr(r.off), n), u.epochSalt)
	var b [4]byte
	u.core.MPBRead(r.flagOff(FlagChk0), b[:])
	if binary.LittleEndian.Uint32(b[:]) != sum {
		// Corrupt, lost, or stale (another sequence number's) chunk:
		// NACK and wait for the retransmission of this sequence number.
		u.core.SetFlag(r.flagOff(FlagReady), r.seq|nackBit)
		u.stats.Nacks++
		r.armDeadline()
		return
	}
	u.core.SetFlag(r.flagOff(FlagReady), r.seq)
	u.core.SetFlag(r.flagOff(FlagProgress), r.seq)
	r.completeChunk(n)
}

// onTimeout handles an expired deadline: lost-ACK recovery via the
// progress byte for senders, retransmission with backoff otherwise.
func (r *robustOp) onTimeout() error {
	u := r.u
	m := u.core.Chip().Model
	u.core.OverheadCycles(m.OverheadTimeoutCheck)
	u.stats.Timeouts++
	if r.kind == ReqSend && u.core.ProbeFlag(r.flagOff(FlagProgress)) == r.seq {
		// The receiver consumed this chunk; its ACK was lost. Treat as
		// acknowledged.
		u.stats.LostAcks++
		u.core.SetFlag(r.flagOff(FlagReady), 0)
		r.completeChunk(r.chunkLen())
		return nil
	}
	r.retries++
	if r.retries > r.pol.MaxRetries {
		u.giveUp()
		return fmt.Errorf("%w: %v peer %02d at byte %d/%d (%d retries)",
			ErrUnreachable, r.kind, r.peer, r.off, r.n, r.pol.MaxRetries)
	}
	if r.kind == ReqSend {
		r.retransmit()
	} else {
		// A receiver cannot push; it widens its window and relies on the
		// sender's retransmission (both sides run the same policy).
		r.backoff()
	}
	return nil
}

// runRobust drives a set of robust ops to completion concurrently: the
// core watches every pending op's flag with one bounded multi-flag wait
// and advances whichever fires. This is what makes a full-duplex
// exchange deadlock-free with a single simulated process per core.
// wait is the hosting library's software cost of one wait round.
func (u *UE) runRobust(wait int64, ops []*robustOp) error {
	for _, r := range ops {
		if r.kind == ReqSend {
			r.stage()
		}
		r.armDeadline()
	}
	var firstTimeout simtime.Time = -1
	settle := func() {
		if firstTimeout >= 0 {
			u.stats.Recovery += u.core.Now() - firstTimeout
		}
	}
	// The per-round scratch lives on the UE (robust ops never nest
	// within one UE), and the match predicate reads the UE field so one
	// closure serves every round.
	match := func(i int, val byte) bool { return u.robustPend[i].match(val) }
	for {
		u.robustOffs = u.robustOffs[:0]
		u.robustPend = u.robustPend[:0]
		var minDL simtime.Time = -1
		for _, r := range ops {
			if r.done {
				continue
			}
			u.robustOffs = append(u.robustOffs, r.watchOff())
			u.robustPend = append(u.robustPend, r)
			if minDL < 0 || r.deadline < minDL {
				minDL = r.deadline
			}
		}
		pend := u.robustPend
		if len(pend) == 0 {
			settle()
			return nil
		}
		u.core.OverheadCycles(wait)
		limit := minDL - u.core.Now()
		if limit < 1 {
			limit = 1
		}
		idx, v, ok := u.core.WaitFlagsMatch(u.robustOffs, limit, match)
		if ok {
			pend[idx].advance(v)
			continue
		}
		now := u.core.Now()
		if firstTimeout < 0 {
			firstTimeout = now
		}
		for _, r := range pend {
			if !r.done && now >= r.deadline {
				if err := r.onTimeout(); err != nil {
					settle()
					return err
				}
			}
		}
	}
}

// SendRobust transmits nBytes to dest with the hardened protocol. costs
// selects the software-overhead profile of the hosting library (blocking,
// iRCCE or lightweight).
func (u *UE) SendRobust(costs NBCosts, pol Policy, dest int, addr scc.Addr, nBytes int) error {
	pol = pol.withDefaults()
	u.core.OverheadCycles(costs.Post)
	u.chargePartialLine(nBytes)
	u.opsBuf[0] = u.initRobustOp(&u.opSend, ReqSend, pol, dest, addr, nBytes)
	return u.runRobust(costs.Wait, u.opsBuf[:1])
}

// RecvRobust receives nBytes from src with the hardened protocol.
func (u *UE) RecvRobust(costs NBCosts, pol Policy, src int, addr scc.Addr, nBytes int) error {
	pol = pol.withDefaults()
	u.core.OverheadCycles(costs.Post)
	u.chargePartialLine(nBytes)
	u.opsBuf[0] = u.initRobustOp(&u.opRecv, ReqRecv, pol, src, addr, nBytes)
	return u.runRobust(costs.Wait, u.opsBuf[:1])
}

// ExchangeRobust runs a hardened send to dest and receive from src
// concurrently (full duplex): both state machines share one bounded
// multi-flag wait, so symmetric exchanges need no odd/even ordering.
func (u *UE) ExchangeRobust(costs NBCosts, pol Policy, dest int, sAddr scc.Addr, sBytes int, src int, rAddr scc.Addr, rBytes int) error {
	pol = pol.withDefaults()
	u.core.OverheadCycles(2 * costs.Post)
	u.chargePartialLine(sBytes)
	u.chargePartialLine(rBytes)
	u.opsBuf[0] = u.initRobustOp(&u.opSend, ReqSend, pol, dest, sAddr, sBytes)
	u.opsBuf[1] = u.initRobustOp(&u.opRecv, ReqRecv, pol, src, rAddr, rBytes)
	return u.runRobust(costs.Wait, u.opsBuf[:2])
}

// BarrierGroup synchronizes the given members (sorted core IDs, which
// must include this UE; nil means every core) with the central barrier
// rooted at the first member. Distinct flag roles and generation
// counters keep group barriers independent of the full-chip Barrier.
func (u *UE) BarrierGroup(members []int) {
	_ = u.centralBarrier(members, FlagGroupArrive, FlagGroupRelease, &u.groupGen, nil) // cannot fail with unbounded waits
}

// BarrierGroupRobust is BarrierGroup with bounded waits (see
// centralBarrier).
func (u *UE) BarrierGroupRobust(members []int, pol Policy) error {
	pol = pol.withDefaults()
	return u.centralBarrier(members, FlagGroupArrive, FlagGroupRelease, &u.groupGen, &pol)
}
