// Package ircce reimplements the iRCCE extension library: non-blocking
// isend/irecv primitives that free the collectives from RCCE's rigid
// blocking handshake (paper Sec. IV-A), at the price of heavyweight
// request management - pending requests live in a linked list and posting
// and completing a request performs dynamic-memory work. That management
// cost is exactly what the paper's lightweight primitives (package lwnb)
// remove in Sec. IV-B.
package ircce

import (
	"scc/internal/metrics"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

// Costs returns iRCCE's software-overhead profile for a model: request
// allocation and pending-list management on every post and completion.
func Costs(m *timing.Model) rcce.NBCosts {
	return rcce.NBCosts{
		Post:     m.OverheadIRCCEPost,
		Wait:     m.OverheadIRCCEWait,
		Progress: m.OverheadIRCCEWait / 4,
	}
}

// Lib is a per-UE instance of the iRCCE library. It tracks the pending
// request list (the source of the overhead the paper measures).
type Lib struct {
	ue      *rcce.UE
	costs   rcce.NBCosts
	pending *node // linked list of outstanding requests
	length  int
}

type node struct {
	req  *rcce.Request
	next *node
}

// New creates the library instance for one UE.
func New(ue *rcce.UE) *Lib {
	return &Lib{ue: ue, costs: Costs(ue.Core().Chip().Model)}
}

// ISend posts a non-blocking send of nBytes to dest. The request is
// inserted into the pending list.
func (l *Lib) ISend(dest int, addr scc.Addr, nBytes int) *rcce.Request {
	r := l.ue.PostSend(l.costs, dest, addr, nBytes)
	l.insert(r)
	return r
}

// IRecv posts a non-blocking receive of nBytes from src.
func (l *Lib) IRecv(src int, addr scc.Addr, nBytes int) *rcce.Request {
	r := l.ue.PostRecv(l.costs, src, addr, nBytes)
	l.insert(r)
	return r
}

// Wait blocks until r completes, then unlinks it from the pending list.
func (l *Lib) Wait(r *rcce.Request) {
	l.ue.Wait(l.costs, r)
	l.remove(r)
}

// WaitAll blocks until all requests complete.
func (l *Lib) WaitAll(reqs ...*rcce.Request) {
	l.ue.WaitAll(l.costs, reqs...)
	for _, r := range reqs {
		l.remove(r)
	}
}

// insert links a request at the list head; the list walk on removal is
// where iRCCE's management overhead comes from (modeled by the Post/Wait
// cost constants; the Go-level list here keeps the bookkeeping honest).
// The pending-list high-water mark is exported through the metrics
// registry: it is the state the lightweight library (lwnb) caps at one
// slot per direction.
func (l *Lib) insert(r *rcce.Request) {
	l.pending = &node{req: r, next: l.pending}
	l.length++
	if reg := l.ue.Core().Metrics(); reg != nil {
		reg.SetMax(l.ue.Core().ID, metrics.CtrPendingReqsMax, int64(l.length))
	}
}

func (l *Lib) remove(r *rcce.Request) {
	for p := &l.pending; *p != nil; p = &(*p).next {
		if (*p).req == r {
			*p = (*p).next
			l.length--
			return
		}
	}
}
