// Package lwnb implements the paper's lightweight non-blocking
// primitives (Sec. IV-B): the same wire protocol as iRCCE, but with at
// most one outstanding send and one outstanding receive per core, held in
// fixed slots. No request list, no dynamic memory - the "expensive
// listkeeping" is gone, which is where the additional ~65% Allreduce
// speedup over iRCCE comes from.
package lwnb

import (
	"fmt"

	"scc/internal/metrics"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

// Costs returns the lightweight library's software-overhead profile for a
// model: fixed slots, no lists, no allocation.
func Costs(m *timing.Model) rcce.NBCosts {
	return rcce.NBCosts{
		Post:     m.OverheadLightweightPost,
		Wait:     m.OverheadLightweightWait,
		Progress: m.OverheadLightweightWait / 4,
	}
}

// Lib is a per-UE instance of the lightweight library. Its two slots are
// the entire request state: reposting overwrites the slot record in
// place (the modeled library's "no dynamic memory" discipline taken
// literally), so a returned *Request is valid until the next post of
// the same direction.
type Lib struct {
	ue    *rcce.UE
	costs rcce.NBCosts

	sendReq, recvReq rcce.Request
	sendSlot         *rcce.Request // nil until first ISend, then &sendReq
	recvSlot         *rcce.Request // nil until first IRecv, then &recvReq
}

// New creates the library instance for one UE.
func New(ue *rcce.UE) *Lib {
	return &Lib{ue: ue, costs: Costs(ue.Core().Chip().Model)}
}

// ISend posts the (single) non-blocking send. It panics if a send is
// already outstanding - the restriction that buys the low overhead.
func (l *Lib) ISend(dest int, addr scc.Addr, nBytes int) *rcce.Request {
	if l.sendSlot != nil && !l.sendSlot.Done() {
		panic(fmt.Sprintf("lwnb: UE %d posted a second concurrent send", l.ue.ID()))
	}
	r := l.ue.PostSendInto(&l.sendReq, l.costs, dest, addr, nBytes)
	l.sendSlot = r
	l.observeOutstanding()
	return r
}

// IRecv posts the (single) non-blocking receive.
func (l *Lib) IRecv(src int, addr scc.Addr, nBytes int) *rcce.Request {
	if l.recvSlot != nil && !l.recvSlot.Done() {
		panic(fmt.Sprintf("lwnb: UE %d posted a second concurrent receive", l.ue.ID()))
	}
	r := l.ue.PostRecvInto(&l.recvReq, l.costs, src, addr, nBytes)
	l.recvSlot = r
	l.observeOutstanding()
	return r
}

// observeOutstanding records the outstanding-request high-water mark
// (at most 2: one send slot + one receive slot) in the same metrics
// counter iRCCE uses for its pending list, making the two libraries'
// request-management state directly comparable in a snapshot.
func (l *Lib) observeOutstanding() {
	reg := l.ue.Core().Metrics()
	if reg == nil {
		return
	}
	var n int64
	if l.sendSlot != nil && !l.sendSlot.Done() {
		n++
	}
	if l.recvSlot != nil && !l.recvSlot.Done() {
		n++
	}
	reg.SetMax(l.ue.Core().ID, metrics.CtrPendingReqsMax, n)
}

// Wait blocks until r completes.
func (l *Lib) Wait(r *rcce.Request) { l.ue.Wait(l.costs, r) }

// WaitAll blocks until all given requests complete, progressing whichever
// can move first.
func (l *Lib) WaitAll(reqs ...*rcce.Request) { l.ue.WaitAll(l.costs, reqs...) }
