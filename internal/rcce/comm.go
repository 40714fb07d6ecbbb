// Package rcce reimplements the SCC's native communication library RCCE
// on the simulated chip: line-granular put/get through the MPBs, the
// two-flag send/receive protocol of the paper's Fig. 3 and a
// generation-counted barrier.
//
// Every point-to-point transfer is one Request, the protocol's one chunk
// state machine (nonblocking.go), in one of two slots per UE. The
// blocking driver runs a whole message, priced by a row: Send/Recv's,
// or RCKMPI's window channel. iRCCE, the lightweight primitives and
// RCKMPI's pairwise exchange post into the slots at their own
// software-overhead constants, and WaitAll completes them; the hardened
// protocol (robust.go) that fault-tolerant collectives run on adds
// checksums, sequence numbers and bounded waits. A message and a wait
// each run as one chain of steps in the engine, and resume their core's
// process once.
package rcce

import (
	"fmt"

	"scc/internal/metrics"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// Flag roles within a core's per-writer flag line. Writer p owns line p
// in every other core's MPB (whole-line ownership mirrors RCCE's
// write-combining-safe flag design); the bytes of that line hold the
// individual flags p may set there.
const (
	// FlagSent: p -> me, "data for you is staged in my MPB".
	FlagSent = 0
	// FlagReady: p -> me, "I consumed the data you staged".
	FlagReady = 1
	// FlagBarrierArrive: p -> root, barrier arrival (generation-valued).
	FlagBarrierArrive = 2
	// FlagBarrierRelease: root -> p, barrier release (generation-valued).
	FlagBarrierRelease = 3
	// FlagMPBSent0/1: ring producer -> consumer, "double-buffer half 0/1
	// holds fresh data" (the MPB-direct Allreduce of Sec. IV-D).
	FlagMPBSent0 = 4
	FlagMPBSent1 = 5
	// FlagMPBReady0/1: ring consumer -> producer, "I am done reading
	// double-buffer half 0/1, you may overwrite it".
	FlagMPBReady0 = 6
	FlagMPBReady1 = 7
	// FlagChk0..FlagChk0+3: sender -> receiver, CRC-32C checksum of the
	// staged chunk and its sequence number (hardened protocol only; lives
	// in the sent-flag line).
	FlagChk0 = 8
	// FlagProgress: receiver -> sender, sequence number of the last chunk
	// the receiver fully consumed. The hardened sender probes it on
	// timeout to distinguish a lost data chunk from a lost ACK.
	FlagProgress = 12
	// FlagGroupArrive/Release: generation-valued barrier flags for
	// group (survivor-set) barriers, kept separate from the full-chip
	// barrier's so the two generation counters cannot desynchronize.
	FlagGroupArrive  = 13
	FlagGroupRelease = 14
	// FlagVoteArrive/Release: the self-healing runtime's outcome vote
	// after every collective (see internal/core). Token-valued; cleared
	// on epoch adoption so a stale vote can never alias a fresh one.
	FlagVoteArrive  = 15
	FlagVoteRelease = 16
	// FlagBcastRelease: BroadcastTree's parent -> child, "a chunk is
	// staged in my data region"; cleared by the child, like FlagSent.
	FlagBcastRelease = 17
	// FlagMemberRelease: a vote root that carries a view announces that
	// its view slot and the epoch word below hold a complete proposal.
	FlagMemberRelease = 18
	// FlagEpochArrive/Release: the commit barrier that seals a newly
	// agreed epoch. Token = 1 + epoch mod 127, so attempts at distinct
	// epochs cannot alias.
	FlagEpochArrive  = 19
	FlagEpochRelease = 20
	// FlagViewEpoch: vote root -> member, the proposed epoch of a
	// self-heal view (little-endian uint32). The view itself is in the
	// root's own view slot (Comm.ViewSlot), not in the flag line; a
	// member reads it there after FlagMemberRelease.
	FlagViewEpoch = timing.FlagFixedRoles
	// FlagBcastAck: BroadcastTree's child -> parent, "I consumed your
	// chunk"; cleared by the parent, like FlagReady.
	FlagBcastAck = FlagViewEpoch + timing.FlagViewEpochBytes
	// FlagTreeArrive/Release: BarrierTree's child -> parent arrival (on
	// the line of the child's ready flag) and parent -> child release (on
	// the line of the parent's sent flag), with their own generation.
	FlagTreeArrive  = FlagViewEpoch + timing.FlagViewEpochBytes + 1
	FlagTreeRelease = FlagTreeArrive + 1
)

// Comm is an RCCE communicator spanning all cores of a chip. It owns
// the MPB layout: the first NumCores cache lines of every core's MPB
// are the flag lines of the potential writers (one each); the reserved
// gap behind them starts with the core's view slot; the rest is the
// chunk data region.
type Comm struct {
	chip *scc.Chip
	rows [2]rowCosts // indexed by Row
}

// NewComm lays an RCCE communicator over the chip.
func NewComm(chip *scc.Chip) *Comm {
	m, c := chip.Model, &Comm{chip: chip}
	c.rows = [2]rowCosts{
		RowRCCE: {chunk: c.DataBytes(), call: m.OverheadBlockingCall, partial: m.OverheadPartialLineCall,
			putLine: m.PutLineCoreCycles, getLine: m.GetLineCoreCycles, recorded: true},
		RowRCKMPI: {chunk: c.Window(), call: m.OverheadRCKMPICall, window: m.OverheadRCKMPICall / 16,
			perByte: m.RCKMPIPerByteCoreCycles},
	}
	return c
}

// NumUEs returns the number of units of execution (cores).
func (c *Comm) NumUEs() int { return c.chip.NumCores() }

// FlagAddr returns the global MPB offset of the flag that `writer` may
// set in `owner`'s MPB, for the given flag role (a byte offset within
// the writer's flag region).
func (c *Comm) FlagAddr(owner, writer, role int) int {
	return c.chip.MPBBase(owner) + writer*c.chip.Model.FlagBytesPerWriter() + role
}

// ViewSlot returns the global MPB offset of a core's view slot: the
// ViewBitmapBytes at the start of the reserved gap, which only the core
// itself writes (see timing.Model.ViewSlot).
func (c *Comm) ViewSlot(core int) int {
	return c.chip.MPBBase(core) + c.chip.Model.ViewSlot()
}

// DataBase returns the global MPB offset of a core's chunk data region:
// the last DataBytes of the core's MPB, behind the per-writer flag
// lines and the model's reserved gap (see timing.Model.MPBDataBytes).
func (c *Comm) DataBase(core int) int {
	m := c.chip.Model
	return c.chip.MPBBase(core) + m.MPBBytesPerCore - m.MPBDataBytes()
}

// DataBytes returns the usable size of each core's chunk data region
// (the per-core MPB minus the flag reservations; on the default
// 48-core chip that is 8192 - (48+4)*32 = 6528 bytes).
func (c *Comm) DataBytes() int {
	return c.chip.Model.MPBDataBytes()
}

// UE returns the unit-of-execution handle for a core. Call from inside
// the core's simulated program. The four per-peer protocol counters are
// sparse paged arrays (see peerBytes): a fresh UE allocates no per-peer
// state at all, and a running one pays only for the peers it actually
// talks to — on a 10,000-core chip a dense NumUEs-sized slice per
// counter per UE would dominate the whole simulation's footprint.
func (c *Comm) UE(coreID int) *UE { return &UE{comm: c, core: c.chip.Cores[coreID]} }

// UE ("unit of execution" in RCCE terminology) is the per-core handle to
// the communication library.
type UE struct {
	comm *Comm
	core *scc.Core

	// barrierGen tracks the barrier generation per root so barriers are
	// reusable without extra clearing round trips; groupGen does the same
	// for group barriers. The per-peer counters are sparse paged arrays
	// indexed by peer core ID; untouched peers cost nothing. treeGen is
	// the tree barrier's generation (it has one root).
	barrierGen peerBytes
	groupGen   peerBytes

	// sendSeq / recvSeq hold the hardened protocol's next sequence
	// number per peer (see robust.go); stats accumulates its recovery
	// counters.
	sendSeq peerBytes
	recvSeq peerBytes
	stats   RecoveryStats

	// epochSalt is folded into every hardened-protocol chunk checksum
	// (see epoch.go): after a membership change, chunks staged under the
	// previous epoch fail verification and are NACKed away instead of
	// being consumed as fresh data. Zero (epoch 0) is the unsalted
	// legacy behavior.
	epochSalt uint32
	treeGen   byte

	// slots are the UE's send and receive transfer, indexed by ReqKind
	// (see nonblocking.go): every point-to-point driver runs its chunk
	// state machine out of them.
	slots [2]Request

	// wait is the UE's wait in progress (nonblocking.go): it never nests,
	// as a slot drain happens before any wait.
	wait waitState
}

// ID returns the UE's rank (== core ID).
func (u *UE) ID() int { return u.core.ID }

// Core exposes the underlying simulated core.
func (u *UE) Core() *scc.Core { return u.core }

// Comm returns the owning communicator.
func (u *UE) Comm() *Comm { return u.comm }

// NumUEs returns the communicator size.
func (u *UE) NumUEs() int { return u.comm.NumUEs() }

// Row names a pricing row of the chunk machine, an entry of its Comm's
// table: RowRCCE (every driver but one) or RowRCKMPI (RCKMPI's blocking
// channel, whose chunk is the Window).
type Row uint8

// The rows, in the order of Comm.rows.
const (
	RowRCCE Row = iota
	RowRCKMPI
)

// rowCosts is what a row's blocking call, partial-line message and
// chunk (the channel's progress engine, before staging or before a
// receive's wait) and its staging per line and per byte cost, in core
// cycles, and whether its puts, gets, sends and receives are counted
// and traced and its chunks noted.
type rowCosts struct {
	chunk                                            int
	call, partial, window, putLine, getLine, perByte int64
	recorded                                         bool
}

// chargePartialLine adds the extra communication-function call a
// message that does not fill whole cache lines makes on row (Sec. V-A).
func (u *UE) chargePartialLine(row Row, nBytes int) {
	if nBytes%u.core.Chip().Model.CacheLineBytes != 0 {
		u.core.OverheadCycles(u.comm.rows[row].partial)
	}
}

// Put moves nBytes from private memory into the MPB at global offset
// mpbOff: per-line cached reads on the private side, write-combined
// line writes on the MPB side. The bytes go straight from the private
// slab to the MPB, as RCCE's put moves cache lines; only a fault hook
// sees a copy (EndWrite's), so a corrupting hook never reaches private
// memory. Get, its mirror, charges the private-side line writes after
// the copy.
func (u *UE) Put(privAddr scc.Addr, mpbOff, nBytes int) {
	t0 := u.clock()
	u.core.Run(nil, u.beginPut(RowRCCE, privAddr, mpbOff, nBytes))
	u.endPut(RowRCCE, t0, privAddr, mpbOff, nBytes)
}

// Get copies nBytes from the MPB at mpbOff to private memory (see Put).
func (u *UE) Get(mpbOff int, privAddr scc.Addr, nBytes int) {
	t0 := u.clock()
	u.core.Run(nil, u.beginGet(RowRCCE, mpbOff, nBytes))
	u.endGet(RowRCCE, mpbOff, privAddr, nBytes)
	u.account(RowRCCE, "get", t0, metrics.CtrGets, metrics.CtrGetTicks)
}

// The halves of a put and a get on row, which Put, Get and a request's
// steps join: beginPut charges staging n bytes from private memory at a
// and begins their write at mpbOff, endPut lands the put that began at
// t0; beginGet charges their line reads and begins reading them at
// mpbOff, endGet copies them to a and charges the rest.
func (u *UE) beginPut(row Row, a scc.Addr, mpbOff, n int) simtime.Step {
	u.ChargeBytes(row, n)
	u.core.OverheadCycles(u.comm.rows[row].putLine * int64(u.core.Chip().Model.Lines(n)))
	u.core.TouchRead(a, n)
	return u.core.BeginAccess(mpbOff, n, false)
}

func (u *UE) endPut(row Row, t0 simtime.Time, a scc.Addr, mpbOff, n int) {
	u.core.EndWrite(mpbOff, u.core.PrivBytes(a, n))
	u.account(row, "put", t0, metrics.CtrPuts, metrics.CtrPutTicks)
}

func (u *UE) beginGet(row Row, mpbOff, n int) simtime.Step {
	u.core.OverheadCycles(u.comm.rows[row].getLine * int64(u.core.Chip().Model.Lines(n)))
	return u.core.BeginAccess(mpbOff, n, true)
}

func (u *UE) endGet(row Row, mpbOff int, a scc.Addr, n int) {
	u.core.EndRead(mpbOff, u.core.PrivBytes(a, n))
	u.ChargeBytes(row, n)
	u.core.TouchWrite(a, n)
}

// ChargeBytes charges row's per-byte staging of n bytes, as a library
// that stages a posted transfer's buffers itself does.
func (u *UE) ChargeBytes(row Row, n int) { u.core.OverheadCycles(u.comm.rows[row].perByte * int64(n)) }

// recording reports whether a put or get on row is traced or counted.
func (u *UE) recording(row Row) bool {
	return u.comm.rows[row].recorded && (u.core.Tracing() || u.core.Metrics() != nil)
}

// clock returns the time a recorded put or get begins at; account
// records the trace span and counters of one on row that began at t0
// and has just ended.
func (u *UE) clock() simtime.Time {
	if u.recording(RowRCCE) {
		return u.core.Now()
	}
	return 0
}

func (u *UE) account(row Row, label string, t0 simtime.Time, calls, ticks metrics.Counter) {
	if !u.recording(row) {
		return
	}
	now := u.core.Now()
	u.core.RecordSpan(label, t0, now)
	if reg := u.core.Metrics(); reg != nil {
		reg.Count(u.core.ID, calls)
		reg.CountN(u.core.ID, ticks, int64(now-t0))
	}
}

// Window returns the per-sender MPB window of RCKMPI's channel, the
// chunk size of RowRCKMPI. RCKMPI statically partitions each core's MPB
// receive space among all possible senders, so one pair only ever
// streams through a small window and long single-pair transfers pay one
// flag round trip per window refill. This is the mechanism behind
// RCKMPI's Fig. 9 placement: tree collectives (one active pair per
// step) crawl, while Alltoall (47 windows active at once) stays
// competitive. Half of each per-sender share holds channel metadata
// (read/write pointers and packet headers); the window is the other
// half, rounded down to whole cache lines (on a one-core chip, which
// has no sender, the whole region is the only share).
func (c *Comm) Window() int {
	line := c.chip.Model.CacheLineBytes
	return max(line, c.DataBytes()/max(1, c.NumUEs()-1)/2/line*line)
}

// Send transmits nBytes from private memory to UE dest using the blocking
// two-flag protocol of Fig. 3. It returns only after dest has consumed
// every chunk.
func (u *UE) Send(dest int, addr scc.Addr, nBytes int) {
	u.Blocking(RowRCCE, ReqSend, dest, addr, nBytes)
}

// Recv receives nBytes from UE src into private memory, blocking.
func (u *UE) Recv(src int, addr scc.Addr, nBytes int) {
	u.Blocking(RowRCCE, ReqRecv, src, addr, nBytes)
}

// Blocking is the blocking driver of the chunk state machine, priced by
// row: one call runs the whole message — stage, wait on the watched
// flag, consume, copy, acknowledge, stage the next chunk — as steps of
// the core's step machine, and its process resumes once, when the
// message is done.
func (u *UE) Blocking(row Row, kind ReqKind, peer int, addr scc.Addr, nBytes int) {
	r, p := u.open(row, NBCosts{}, kind, nil, peer, addr, nBytes), &u.comm.rows[row]
	r.blocking = true
	var t0 simtime.Time
	reg := u.core.Metrics()
	if reg != nil && p.recorded {
		t0 = u.core.Now()
	}
	u.core.OverheadCycles(p.call)
	u.chargePartialLine(row, nBytes)
	if kind == ReqSend {
		r.run(r.stage())
	} else {
		r.run(r.then()) // a receive begins with the wait
	}
	if reg != nil && p.recorded {
		ctr := [2][2]metrics.Counter{{metrics.CtrSends, metrics.CtrSendTicks}, {metrics.CtrRecvs, metrics.CtrRecvTicks}}[kind]
		reg.Count(u.core.ID, ctr[0])
		reg.CountN(u.core.ID, ctr[1], int64(u.core.Now()-t0))
	}
}

// Barrier synchronizes all UEs with RCCE's central barrier rooted at
// UE 0 (see centralBarrier), which walks all p flags on UE 0; above the
// paper chip the collectives layer runs BarrierTree instead.
func (u *UE) Barrier() {
	_ = u.centralBarrier(nil, FlagBarrierArrive, FlagBarrierRelease, &u.barrierGen, nil) // cannot fail with unbounded waits
}

// centralBarrier is the gather-then-release barrier under Barrier and
// BarrierGroup: every member but the first raises a generation-valued
// arrive flag in the first member's MPB and waits for its release; the
// first member waits on every arrival, then releases every member.
// members nil means every core; gens counts generations per root, so no
// round trip clears a flag. A non-nil pol bounds the waits: members
// re-raise their arrival on timeout (recovering a lost write) and give
// up with ErrUnreachable once the retry budget is spent.
func (u *UE) centralBarrier(members []int, arrive, release int, gens *peerBytes, pol *Policy) error {
	m := u.core.Chip().Model
	u.core.OverheadCycles(m.OverheadBlockingCall)
	n, member := len(members), func(i int) int { return members[i] }
	if members == nil {
		n, member = u.NumUEs(), func(i int) int { return i }
	}
	switch n {
	case 0:
		panic("rcce: barrier with no members")
	case 1:
		return nil
	}
	root := member(0)
	gen := max(1, gens.get(root)+1) // 0 is never a generation
	gens.set(root, gen)

	boundedWait := func(peer, off int, onRetry func()) error {
		if pol == nil {
			u.core.WaitFlag(off, gen)
			return nil
		}
		for l := (ladder{window: pol.Timeout}); ; {
			if _, ok := u.core.WaitFlagMatch(scc.Watch(off, gen, gen), l.window+pol.JitterOf(l.window, u.ID(), peer, gen, l.retries)); ok {
				return nil
			}
			u.timedOut()
			if !u.climb(&l, pol) {
				return fmt.Errorf("%w: barrier (root %02d, gen %d)", ErrUnreachable, root, gen)
			}
			if onRetry != nil {
				onRetry()
			}
		}
	}

	if u.ID() == root {
		for i := 1; i < n; i++ {
			if err := boundedWait(member(i), u.comm.FlagAddr(root, member(i), arrive), nil); err != nil {
				return err
			}
		}
		for i := 1; i < n; i++ {
			u.core.SetFlag(u.comm.FlagAddr(member(i), root, release), gen)
		}
		u.core.Note(simtime.Note1("barrier gen %d released", int64(gen)))
		return nil
	}
	a := u.comm.FlagAddr(root, u.ID(), arrive)
	u.core.SetFlag(a, gen)
	err := boundedWait(root, u.comm.FlagAddr(u.ID(), root, release), func() {
		u.core.SetFlag(a, gen) // our arrival may have been lost
		u.stats.Retransmits++
	})
	if err == nil {
		u.core.Note(simtime.Note1("barrier gen %d passed", int64(gen)))
	}
	return err
}
