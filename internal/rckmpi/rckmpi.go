// Package rckmpi models RCKMPI, the MPICH-based full MPI implementation
// for the SCC that the paper uses as its comparator (Sec. III, Sec. V).
// Two properties matter for the reproduction and are modeled from the
// paper's own observations:
//
//   - RCKMPI's channel transfers bytes smoothly: partial cache lines do
//     not trigger the extra communication call RCCE needs, so its
//     latency curve has none of the period-4 spikes (Sec. V-A) - at the
//     price of a per-byte software cost.
//   - The full MPICH layering (request objects, matching queues, the
//     datatype engine) makes every point-to-point operation expensive:
//     "significantly higher memory footprint and runtime overhead
//     compared to RCCE", leaving it roughly 2x-5x above the RCCE_comm
//     baseline everywhere except Alltoall, whose cost is dominated by
//     raw data volume.
//
// The channel is no protocol of its own: Send and Recv are RCCE's
// blocking driver priced by RCKMPI's row (rcce.RowRCKMPI), and the
// pairwise exchange posts into the same request slots at RCKMPI's
// non-blocking costs. The collective algorithms follow the MPICH
// playbook: binomial trees for rooted collectives, a ring for
// Allgather, pairwise exchange for Alltoall. The collectives have the
// error-returning method set of internal/core's context (whose Op,
// Block and ErrInvalid they use), so every layer calls the comparator
// like any other stack.
package rckmpi

import (
	"scc/internal/rcce"
	"scc/internal/scc"
)

// Lib is a per-UE RCKMPI instance. It is one pointer wide, so storing it
// in an interface allocates nothing.
type Lib struct {
	ue *rcce.UE
}

// New creates the RCKMPI instance for one UE. It shares the chip's MPB
// flag layout with RCCE (RCKMPI also runs its channel through the MPBs)
// but prices operations through its own cost model.
func New(ue *rcce.UE) Lib {
	return Lib{ue: ue}
}

func (l Lib) core() *scc.Core { return l.ue.Core() }

// Send transmits nBytes to dest through the RCKMPI channel: a blocking
// rendezvous through the MPB window (rcce.Comm.Window), with
// byte-granular software costs (no partial-line padding call, hence the
// smooth latency curve).
func (l Lib) Send(dest int, addr scc.Addr, nBytes int) {
	l.ue.Blocking(rcce.RowRCKMPI, rcce.ReqSend, dest, addr, nBytes)
}

// Recv receives nBytes from src.
func (l Lib) Recv(src int, addr scc.Addr, nBytes int) {
	l.ue.Blocking(rcce.RowRCKMPI, rcce.ReqRecv, src, addr, nBytes)
}

// sendRecvPair exchanges with one symmetric partner. MPICH's pairwise
// exchange posts both legs as non-blocking requests (here into the UE's
// two request slots) and waits on both, so the two directions overlap
// on the wire; this is why RCKMPI stays competitive on Alltoall
// (Sec. V-A) while losing everywhere overhead-bound. The channel's
// per-byte cost is still charged on both buffers.
func (l Lib) sendRecvPair(peer int, sAddr scc.Addr, sBytes int, rAddr scc.Addr, rBytes int) {
	call := l.core().Chip().Model.OverheadRCKMPICall
	costs := rcce.NBCosts{Post: call, Wait: call / 4, Progress: call / 8}
	l.ue.ChargeBytes(rcce.RowRCKMPI, sBytes)
	s := l.ue.PostSend(costs, peer, sAddr, sBytes)
	r := l.ue.PostRecv(costs, peer, rAddr, rBytes)
	_ = l.ue.WaitAll(costs, s, r) // posted requests: the wait cannot fail
	l.ue.ChargeBytes(rcce.RowRCKMPI, rBytes)
}
