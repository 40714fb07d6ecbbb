// Package rcce reimplements the SCC's native communication library RCCE
// on the simulated chip: line-granular put/get through the MPBs, the
// two-flag blocking send/receive protocol of the paper's Fig. 3, a
// generation-counted barrier, and the very basic native collectives whose
// poor scaling motivates the paper (Sec. III).
//
// The package also hosts the shared non-blocking request engine that the
// iRCCE and lightweight libraries (packages ircce and lwnb) instantiate
// with their respective software-overhead constants.
package rcce

import (
	"fmt"

	"scc/internal/metrics"
	"scc/internal/scc"
	"scc/internal/simtime"
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
	// FlagChk0..FlagChk0+3: sender -> receiver, FNV-1a checksum of the
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
	// FlagMemberArrive/Release: membership-agreement participation and
	// view-publication flags. Arrive carries a per-member monotonic
	// token; Release announces that the view payload below is valid.
	FlagMemberArrive  = 17
	FlagMemberRelease = 18
	// FlagEpochArrive/Release: the commit barrier that seals a newly
	// agreed epoch. Token = 1 + epoch mod 127, so attempts at distinct
	// epochs cannot alias.
	FlagEpochArrive  = 19
	FlagEpochRelease = 20
	// FlagSuspBase starts the membership bitmap payload region (one bit
	// per core, so ceil(NumCores/8) bytes — Comm.ViewBitmapBytes).
	// member -> coordinator lines carry the member's suspicion bitmap;
	// coordinator -> member lines carry the agreed view bitmap. The
	// agreed-epoch word and the call-sequence byte follow; their offsets
	// depend on the core count, so they are Comm methods (FlagViewEpoch,
	// FlagCollSeq) rather than constants.
	FlagSuspBase = 21
)

// ViewBitmapBytes returns the size of the membership bitmaps shipped
// through the flag region: one bit per core.
func (c *Comm) ViewBitmapBytes() int { return c.chip.Model.ViewBitmapBytes() }

// FlagViewEpoch returns the role offset of the agreed epoch
// (little-endian uint32), right after the view bitmap.
func (c *Comm) FlagViewEpoch() int { return FlagSuspBase + c.ViewBitmapBytes() }

// FlagCollSeq returns the role offset of the wrapped-collective call
// sequence (mod 256), shipped with each agreement arrival so a member
// stranded on a different collective call than the majority cohort is
// evicted instead of exchanging mismatched payloads. Last byte of the
// per-writer flag region.
func (c *Comm) FlagCollSeq() int { return c.chip.Model.FlagBytesPerWriter() - 1 }

// Unexported aliases keep the package-internal protocol code terse.
const (
	flagSent           = FlagSent
	flagReady          = FlagReady
	flagBarrierArrive  = FlagBarrierArrive
	flagBarrierRelease = FlagBarrierRelease
)

// Comm is an RCCE communicator spanning all cores of a chip. It owns
// the MPB layout: the first NumCores flag regions of every core's MPB
// belong to the potential writers (one region each, sized by the
// model's FlagBytesPerWriter); the rest is the chunk data region.
type Comm struct {
	chip *scc.Chip
	// userFlags tracks per-core allocation of gory-interface user flags
	// (see gory.go).
	userFlags map[int][]bool
}

// NewComm lays an RCCE communicator over the chip.
func NewComm(chip *scc.Chip) *Comm {
	return &Comm{chip: chip}
}

// Chip returns the underlying chip.
func (c *Comm) Chip() *scc.Chip { return c.chip }

// NumUEs returns the number of units of execution (cores).
func (c *Comm) NumUEs() int { return c.chip.NumCores() }

// FlagAddr returns the global MPB offset of the flag that `writer` may
// set in `owner`'s MPB, for the given flag role (a byte offset within
// the writer's flag region).
func (c *Comm) FlagAddr(owner, writer, role int) int {
	return c.chip.MPBBase(owner) + writer*c.chip.Model.FlagBytesPerWriter() + role
}

// DataBase returns the global MPB offset of a core's chunk data region
// (after the per-writer flag regions and the gory-interface user-flag
// region).
func (c *Comm) DataBase(core int) int {
	return c.userFlagBase(core) + c.UserFlagCount()
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
func (c *Comm) UE(coreID int) *UE {
	return &UE{
		comm: c,
		core: c.chip.Cores[coreID],
	}
}

// UE ("unit of execution" in RCCE terminology) is the per-core handle to
// the communication library.
type UE struct {
	comm *Comm
	core *scc.Core

	// barrierGen tracks the barrier generation per root so barriers are
	// reusable without extra clearing round trips; dissemGen does the
	// same for the dissemination barrier, groupGen for group barriers.
	// The per-peer counters are sparse paged arrays indexed by peer
	// core ID; untouched peers cost nothing.
	barrierGen peerBytes
	groupGen   peerBytes
	dissemGen  byte

	// activeSend is the send request currently occupying the core's MPB
	// staging region (see PostSend).
	activeSend *Request

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

	// peerObs, when installed, observes per-peer protocol outcomes: it
	// is called with alive=false when a peer exhausts a retry budget and
	// alive=true on any successful handshake with it. The in-band
	// failure detector of internal/core hangs off this hook.
	peerObs func(peer int, alive bool)

	// stage is the UE's staging arena for Put/Get: a core moves at most
	// one message chunk at a time, so one reusable buffer replaces the
	// per-call make([]byte, nBytes).
	stage []byte

	// Scratch for the request engine's WaitAll rounds and the robust
	// path's multi-op wait (see nonblocking.go, robust.go). Safe to
	// reuse because these loops never nest within one UE.
	waitFlags  []int
	waitPend   []*Request
	robustOffs []int
	robustPend []*robustOp
	// opSend/opRecv are the robust-op storage reused by SendRobust /
	// RecvRobust / ExchangeRobust, with opsBuf the argument slice.
	opSend, opRecv robustOp
	opsBuf         [2]*robustOp
}

// scratch returns the staging arena resized to n bytes, reallocating
// only when the requested size exceeds the current capacity.
func (u *UE) scratch(n int) []byte {
	if cap(u.stage) < n {
		u.stage = make([]byte, n)
	}
	return u.stage[:n]
}

// ID returns the UE's rank (== core ID).
func (u *UE) ID() int { return u.core.ID }

// Core exposes the underlying simulated core.
func (u *UE) Core() *scc.Core { return u.core }

// Comm returns the owning communicator.
func (u *UE) Comm() *Comm { return u.comm }

// NumUEs returns the communicator size.
func (u *UE) NumUEs() int { return u.comm.NumUEs() }

// chargeCall prices one library-call entry of n core cycles
// (classified as software overhead in the metrics registry).
func (u *UE) chargeCall(n int64) {
	u.core.OverheadCycles(n)
}

// chargePartialLine adds the extra communication-function call RCCE
// makes when a message does not fill whole cache lines (Sec. V-A).
func (u *UE) chargePartialLine(nBytes int) {
	m := u.core.Chip().Model
	if nBytes%m.CacheLineBytes != 0 {
		u.core.OverheadCycles(m.OverheadPartialLineCall)
	}
}

// Put stages nBytes from private memory into the MPB at global offset
// mpbOff: per-line cached reads on the private side, write-combined
// line writes on the MPB side.
func (u *UE) Put(privAddr scc.Addr, mpbOff, nBytes int) {
	m := u.core.Chip().Model
	reg := u.core.Metrics()
	var t0 simtime.Time
	if u.core.Tracing() || reg != nil {
		t0 = u.core.Now()
	}
	buf := u.scratch(nBytes)
	u.core.OverheadCycles(m.PutLineCoreCycles * int64(m.Lines(nBytes)))
	u.readPriv(privAddr, buf)
	u.core.MPBWrite(mpbOff, buf)
	if u.core.Tracing() {
		u.core.RecordSpan("put", t0, u.core.Now())
	}
	if reg != nil {
		reg.Count(u.core.ID, metrics.CtrPuts)
		reg.CountN(u.core.ID, metrics.CtrPutTicks, int64(u.core.Now()-t0))
	}
}

// Get copies nBytes from the MPB at global offset mpbOff into private
// memory at privAddr.
func (u *UE) Get(mpbOff int, privAddr scc.Addr, nBytes int) {
	m := u.core.Chip().Model
	reg := u.core.Metrics()
	var t0 simtime.Time
	if u.core.Tracing() || reg != nil {
		t0 = u.core.Now()
	}
	buf := u.scratch(nBytes)
	u.core.OverheadCycles(m.GetLineCoreCycles * int64(m.Lines(nBytes)))
	u.core.MPBRead(mpbOff, buf)
	u.writePriv(privAddr, buf)
	if u.core.Tracing() {
		u.core.RecordSpan("get", t0, u.core.Now())
	}
	if reg != nil {
		reg.Count(u.core.ID, metrics.CtrGets)
		reg.CountN(u.core.ID, metrics.CtrGetTicks, int64(u.core.Now()-t0))
	}
}

// readPriv / writePriv move raw bytes between the simulation and the
// core's private memory, charging cache costs.
func (u *UE) readPriv(a scc.Addr, buf []byte) {
	u.core.TouchRead(a, len(buf))
	copy(buf, u.core.PrivBytes(a, len(buf)))
}

func (u *UE) writePriv(a scc.Addr, buf []byte) {
	u.core.TouchWrite(a, len(buf))
	copy(u.core.PrivBytes(a, len(buf)), buf)
}

// Send transmits nBytes from private memory to UE dest using the blocking
// two-flag protocol of Fig. 3. It returns only after dest has consumed
// every chunk.
func (u *UE) Send(dest int, addr scc.Addr, nBytes int) {
	if dest == u.ID() {
		panic(fmt.Sprintf("rcce: UE %d sending to itself", dest))
	}
	m := u.core.Chip().Model
	reg := u.core.Metrics()
	var t0 simtime.Time
	if reg != nil {
		t0 = u.core.Now()
	}
	u.chargeCall(m.OverheadBlockingCall)
	u.chargePartialLine(nBytes)
	chunk := u.comm.DataBytes()
	sent := u.comm.FlagAddr(dest, u.ID(), flagSent)   // I set this in dest's MPB
	ready := u.comm.FlagAddr(u.ID(), dest, flagReady) // dest sets this in my MPB
	for off := 0; off < nBytes || nBytes == 0; off += chunk {
		n := min(chunk, nBytes-off)
		u.Put(addr+scc.Addr(off), u.comm.DataBase(u.ID()), n)
		u.core.SetFlag(sent, 1)
		u.core.WaitFlag(ready, 1)
		u.core.SetFlag(ready, 0) // clear ready (local line)
		u.core.Note(simtime.Note3("send->%02d: %d/%d B acked",
			int64(dest), int64(off+n), int64(nBytes)))
		if nBytes == 0 {
			break
		}
	}
	if reg != nil {
		reg.Count(u.core.ID, metrics.CtrSends)
		reg.CountN(u.core.ID, metrics.CtrSendTicks, int64(u.core.Now()-t0))
	}
}

// Recv receives nBytes from UE src into private memory, blocking.
func (u *UE) Recv(src int, addr scc.Addr, nBytes int) {
	if src == u.ID() {
		panic(fmt.Sprintf("rcce: UE %d receiving from itself", src))
	}
	m := u.core.Chip().Model
	reg := u.core.Metrics()
	var t0 simtime.Time
	if reg != nil {
		t0 = u.core.Now()
	}
	u.chargeCall(m.OverheadBlockingCall)
	u.chargePartialLine(nBytes)
	chunk := u.comm.DataBytes()
	sent := u.comm.FlagAddr(u.ID(), src, flagSent)   // src sets this in my MPB
	ready := u.comm.FlagAddr(src, u.ID(), flagReady) // I set this in src's MPB
	for off := 0; off < nBytes || nBytes == 0; off += chunk {
		n := min(chunk, nBytes-off)
		u.core.WaitFlag(sent, 1)
		u.core.SetFlag(sent, 0) // clear sent (local line)
		u.Get(u.comm.DataBase(src), addr+scc.Addr(off), n)
		u.core.SetFlag(ready, 1)
		u.core.Note(simtime.Note3("recv<-%02d: %d/%d B consumed",
			int64(src), int64(off+n), int64(nBytes)))
		if nBytes == 0 {
			break
		}
	}
	if reg != nil {
		reg.Count(u.core.ID, metrics.CtrRecvs)
		reg.CountN(u.core.ID, metrics.CtrRecvTicks, int64(u.core.Now()-t0))
	}
}

// SendF64s / RecvF64s are float64-vector conveniences.
func (u *UE) SendF64s(dest int, addr scc.Addr, n int) { u.Send(dest, addr, 8*n) }
func (u *UE) RecvF64s(src int, addr scc.Addr, n int)  { u.Recv(src, addr, 8*n) }

// Barrier synchronizes all UEs: members report arrival to UE 0 with a
// generation-valued flag; UE 0 releases everyone by writing the same
// generation into their release flags. Generations make the barrier
// reusable with no clearing round trips.
func (u *UE) Barrier() {
	const root = 0
	m := u.core.Chip().Model
	u.chargeCall(m.OverheadBlockingCall)
	gen := u.barrierGen.get(root)
	gen++
	if gen == 0 {
		gen = 1
	}
	u.barrierGen.set(root, gen)
	if u.ID() == root {
		for p := 0; p < u.NumUEs(); p++ {
			if p == root {
				continue
			}
			u.core.WaitFlag(u.comm.FlagAddr(root, p, flagBarrierArrive), gen)
		}
		for p := 0; p < u.NumUEs(); p++ {
			if p == root {
				continue
			}
			u.core.SetFlag(u.comm.FlagAddr(p, root, flagBarrierRelease), gen)
		}
		return
	}
	u.core.SetFlag(u.comm.FlagAddr(root, u.ID(), flagBarrierArrive), gen)
	u.core.WaitFlag(u.comm.FlagAddr(u.ID(), root, flagBarrierRelease), gen)
}
