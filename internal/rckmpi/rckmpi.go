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
// Its collective algorithms follow the MPICH playbook: binomial trees
// for rooted collectives, a ring for Allgather, pairwise exchange for
// Alltoall.
package rckmpi

import (
	"fmt"

	"scc/internal/rcce"
	"scc/internal/scc"
)

// Lib is a per-UE RCKMPI instance.
type Lib struct {
	ue *rcce.UE
	// winBuf is the channel's window staging buffer, sized to Window()
	// on first use and reused across calls. Safe because a UE runs one
	// blocking Send or Recv at a time.
	winBuf []byte
}

// New creates the RCKMPI instance for one UE. It shares the chip's MPB
// flag layout with RCCE (RCKMPI also runs its channel through the MPBs)
// but prices operations through its own cost model.
func New(ue *rcce.UE) *Lib {
	return &Lib{ue: ue}
}

// UE returns the underlying unit of execution.
func (l *Lib) UE() *rcce.UE { return l.ue }

func (l *Lib) core() *scc.Core { return l.ue.Core() }

// chargeCall prices one MPI point-to-point call's software layering.
func (l *Lib) chargeCall() {
	l.core().OverheadCycles(l.core().Chip().Model.OverheadRCKMPICall)
}

// chargeBytes prices the channel's per-byte copy work on one side.
func (l *Lib) chargeBytes(n int) {
	l.core().OverheadCycles(l.core().Chip().Model.RCKMPIPerByteCoreCycles * int64(n))
}

// Window returns the per-sender MPB window size of the SCCMPB channel.
// RCKMPI statically partitions each core's MPB receive space among all
// possible senders, so one pair only ever streams through a small
// window and long single-pair transfers pay one flag round trip per
// window refill. This is the mechanism behind RCKMPI's Fig. 9 placement:
// tree collectives (one active pair per step) crawl, while Alltoall
// (47 windows active at once) stays competitive. The window is rounded
// down to whole cache lines.
func (l *Lib) Window() int {
	comm := l.ue.Comm()
	line := l.core().Chip().Model.CacheLineBytes
	// Half of each per-sender share holds channel metadata (read/write
	// pointers and packet headers), halving the usable payload window.
	w := comm.DataBytes() / (comm.NumUEs() - 1) / 2 / line * line
	if w < line {
		w = line
	}
	return w
}

// scratch returns the reusable window buffer, growing it if needed.
func (l *Lib) scratch(n int) []byte {
	if cap(l.winBuf) < n {
		l.winBuf = make([]byte, n)
	}
	return l.winBuf[:n]
}

// Send transmits nBytes to dest through the RCKMPI channel (blocking
// rendezvous through the MPB window, with byte-granular software costs:
// no partial-line padding call, hence the smooth latency curve).
func (l *Lib) Send(dest int, addr scc.Addr, nBytes int) {
	if dest == l.ue.ID() {
		panic(fmt.Sprintf("rckmpi: UE %d send to itself", dest))
	}
	l.chargeCall()
	comm := l.ue.Comm()
	c := l.core()
	chunk := l.Window()
	sent := comm.FlagAddr(dest, l.ue.ID(), rcce.FlagSent)
	ready := comm.FlagAddr(l.ue.ID(), dest, rcce.FlagReady)
	buf := l.scratch(chunk)
	progress := l.core().Chip().Model.OverheadRCKMPICall / 16
	for off := 0; off < nBytes || nBytes == 0; off += chunk {
		n := nBytes - off
		if n > chunk {
			n = chunk
		}
		c.OverheadCycles(progress) // channel progress engine, per window
		l.chargeBytes(n)
		c.TouchRead(addr+scc.Addr(off), n)
		copy(buf[:n], c.PrivBytes(addr+scc.Addr(off), n))
		c.MPBWrite(comm.DataBase(l.ue.ID()), buf[:n])
		c.SetFlag(sent, 1)
		c.WaitFlag(ready, 1)
		c.SetFlag(ready, 0)
		if nBytes == 0 {
			break
		}
	}
}

// Recv receives nBytes from src.
func (l *Lib) Recv(src int, addr scc.Addr, nBytes int) {
	if src == l.ue.ID() {
		panic(fmt.Sprintf("rckmpi: UE %d recv from itself", src))
	}
	l.chargeCall()
	comm := l.ue.Comm()
	c := l.core()
	chunk := l.Window()
	sent := comm.FlagAddr(l.ue.ID(), src, rcce.FlagSent)
	ready := comm.FlagAddr(src, l.ue.ID(), rcce.FlagReady)
	buf := l.scratch(chunk)
	progress := l.core().Chip().Model.OverheadRCKMPICall / 16
	for off := 0; off < nBytes || nBytes == 0; off += chunk {
		n := nBytes - off
		if n > chunk {
			n = chunk
		}
		c.OverheadCycles(progress) // channel progress engine, per window
		c.WaitFlag(sent, 1)
		c.SetFlag(sent, 0)
		c.MPBRead(comm.DataBase(src), buf[:n])
		l.chargeBytes(n)
		c.TouchWrite(addr+scc.Addr(off), n)
		copy(c.PrivBytes(addr+scc.Addr(off), n), buf[:n])
		c.SetFlag(ready, 1)
		if nBytes == 0 {
			break
		}
	}
}

// sendRecvPair exchanges with one symmetric partner. MPICH's pairwise
// exchange posts both legs as non-blocking requests (here into the UE's
// two request slots) and waits on both,
// so the two directions overlap on the wire; this is why RCKMPI stays
// competitive on Alltoall (Sec. V-A) while losing everywhere
// overhead-bound. The per-byte channel cost is still charged on both
// buffers.
func (l *Lib) sendRecvPair(peer int, sAddr scc.Addr, sBytes int, rAddr scc.Addr, rBytes int) {
	m := l.core().Chip().Model
	costs := rcce.NBCosts{
		Post:     m.OverheadRCKMPICall,
		Wait:     m.OverheadRCKMPICall / 4,
		Progress: m.OverheadRCKMPICall / 8,
	}
	l.chargeBytes(sBytes)
	s := l.ue.PostSend(costs, peer, sAddr, sBytes)
	r := l.ue.PostRecv(costs, peer, rAddr, rBytes)
	l.ue.WaitAll(costs, s, r)
	l.chargeBytes(rBytes)
}
