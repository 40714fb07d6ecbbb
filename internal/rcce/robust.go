package rcce

import (
	"errors"
	"hash/crc32"

	"scc/internal/scc"
	"scc/internal/simtime"
)

// This file implements the hardened (self-recovering) point-to-point
// protocol: the steps a Request with hard set adds to the one chunk
// state machine of nonblocking.go, and their start. The plain
// two-flag protocol assumes a perfect chip: one lost flag write hangs
// both peers forever. The hardened variant survives lost and corrupted
// MPB traffic:
//
//   - Flags carry sequence numbers (1..127) instead of 0/1, so a
//     duplicate chunk is recognized and re-acknowledged, not re-consumed.
//   - Every chunk travels with a CRC-32C checksum in the sent-flag line
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

// nextSeq and prevSeq step a sequence number around 1..seqMax.
func nextSeq(s byte) byte { return s%seqMax + 1 }
func prevSeq(s byte) byte { return (s+seqMax-2)%seqMax + 1 }

// castagnoli is CRC-32C's table; hash/crc32 runs it on the CPU's CRC32
// instruction where there is one. seqCRC[s] is the CRC of the one byte s,
// so a sum starts from its sequence number without staging it in a slice.
var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	seqCRC     = func() (t [256]uint32) {
		for s := range t {
			t[s] = crc32.Checksum([]byte{byte(s)}, castagnoli)
		}
		return t
	}()
)

// chunkSum is the per-chunk checksum: CRC-32C over the chunk's sequence
// number followed by its payload, salted with the epoch. It detects
// every error burst of up to 32 bits. Sender and receiver both compute
// it over their private-memory copy.
func chunkSum(seq byte, payload []byte, epochSalt uint32) uint32 {
	return crc32.Update(seqCRC[seq], castagnoli, payload) ^ epochSalt
}

// seqs is the per-peer sequence counter of the request's direction.
func (r *Request) seqs() *peerBytes {
	if r.kind == ReqRecv {
		return &r.ue.recvSeq
	}
	return &r.ue.sendSeq
}

// armDeadline bounds the request's wait one window from now, jittered
// after a retransmission or a receive's timeout (which widened it).
func (r *Request) armDeadline() {
	var jitter simtime.Duration
	if r.backoff {
		r.backoff = false
		jitter = r.pol.JitterOf(r.window, r.ue.ID(), r.peer, r.seq, r.retries)
	}
	r.deadline = r.ue.core.Now() + r.window + jitter
}

// checksum prices checksumming the n-byte chunk in flight (minimum one
// line) and computes it over the private-memory copy. It covers the
// sequence number, so a corrupted write, a lost write, and the loss of
// both writes (which leaves the previous chunk and its own checksum in
// place) all fail verification on the receiver.
func (r *Request) checksum(n int) uint32 {
	u := r.ue
	m := u.core.Chip().Model
	u.core.OverheadCycles(m.ChecksumPerLineCoreCycles * int64(max(1, m.Lines(n))))
	return chunkSum(r.seq, u.core.PrivBytes(r.addr+scc.Addr(r.off), n), u.epochSalt)
}

// retransmit re-stages the chunk in flight after a timeout or NACK; the
// deadline backs off once it is staged.
func (r *Request) retransmit() simtime.Step {
	u := r.ue
	u.core.OverheadCycles(u.core.Chip().Model.OverheadRetransmit)
	u.stats.Retransmits++
	r.backoff = true
	return r.stage()
}

// Every bounded wait, a hardened request's or the barrier's (comm.go),
// climbs one retry ladder: a timeout is charged and counted; unless
// something else recovers it, it spends a retry, and past the budget
// it gives up, otherwise its window widens by Backoff. How a window is
// jittered is the wait's own (armDeadline, centralBarrier).
type ladder struct {
	window  simtime.Duration
	retries int
}

func (l *ladder) widen() { l.window *= Backoff }

func (u *UE) timedOut() {
	u.core.OverheadCycles(u.core.Chip().Model.OverheadTimeoutCheck)
	u.stats.Timeouts++
}

// climb spends a retry of pol's budget on l, or records a give-up
// (reading the clock) and reports false.
func (u *UE) climb(l *ladder, pol *Policy) bool {
	if l.retries++; l.retries > pol.MaxRetries {
		u.giveUp()
		return false
	}
	l.widen()
	return true
}

// expire charges and counts the request's timeout. A send then reads
// its receiver's progress byte, as its ACK may have been lost.
func (r *Request) expire() simtime.Step {
	r.ue.timedOut()
	if r.kind == ReqSend {
		return r.access(reqExpired, r.flagOff(FlagProgress), 1, true)
	}
	r.pc = reqExpired
	return r.ue.core.Flush() // the retry reads the clock after the charge
}

// retry ends a timeout: a send whose receiver consumed the chunk in
// flight completes it, otherwise the request spends a retry — a send
// retransmits, a receive widens its window — or, past the budget, fails.
func (r *Request) retry() simtime.Step {
	u := r.ue
	if r.kind == ReqSend && u.core.EndProbe(r.flagOff(FlagProgress)) == r.seq {
		// Its ACK was lost. Treat as acknowledged: clear the ready flag
		// and complete the chunk.
		u.stats.LostAcks++
		return r.advance(r.seq)
	}
	if r.pc = reqIdle; !u.climb(&r.ladder, &r.pol) {
		r.failed, u.wait.pc = true, waitIdle // the wait ends with its error
		return simtime.Resume()
	}
	if r.kind == ReqSend {
		return r.retransmit()
	}
	// A receiver cannot push; it widens its window and relies on the
	// sender's retransmission (both sides run the same policy).
	r.backoff = true
	r.armDeadline()
	return simtime.Resume()
}

// SendRobust transmits nBytes to dest with the hardened protocol. costs
// selects the software-overhead profile of the hosting library (blocking,
// iRCCE or lightweight).
func (u *UE) SendRobust(costs NBCosts, pol Policy, dest int, addr scc.Addr, nBytes int) error {
	return u.robust(costs, pol, ReqSend, dest, addr, nBytes)
}

// RecvRobust receives nBytes from src with the hardened protocol.
func (u *UE) RecvRobust(costs NBCosts, pol Policy, src int, addr scc.Addr, nBytes int) error {
	return u.robust(costs, pol, ReqRecv, src, addr, nBytes)
}

// robust runs one hardened transfer in the slot of the given kind.
func (u *UE) robust(costs NBCosts, pol Policy, kind ReqKind, peer int, addr scc.Addr, nBytes int) error {
	pol = pol.withDefaults()
	r := u.open(RowRCCE, costs, kind, &pol, peer, addr, nBytes)
	u.core.OverheadCycles(costs.Post)
	u.chargePartialLine(RowRCCE, nBytes)
	return u.waitAll(waitStart, costs, r)
}

// ExchangeRobust runs a hardened send to dest and receive from src
// concurrently (full duplex): both state machines share one bounded
// multi-flag wait, so symmetric exchanges need no odd/even ordering and
// a single simulated process per core cannot deadlock.
func (u *UE) ExchangeRobust(costs NBCosts, pol Policy, dest int, sAddr scc.Addr, sBytes int, src int, rAddr scc.Addr, rBytes int) error {
	pol = pol.withDefaults()
	s := u.open(RowRCCE, costs, ReqSend, &pol, dest, sAddr, sBytes)
	r := u.open(RowRCCE, costs, ReqRecv, &pol, src, rAddr, rBytes)
	u.core.OverheadCycles(2 * costs.Post)
	u.chargePartialLine(RowRCCE, sBytes)
	u.chargePartialLine(RowRCCE, rBytes)
	return u.waitAll(waitStart, costs, s, r)
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
