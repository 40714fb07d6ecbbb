// Package lwnb is the paper's lightweight non-blocking primitives
// (Sec. IV-B) as forwarders to rcce. iRCCE and the lightweight library
// run the same wire protocol out of the same two request slots per
// core and differ only in their cost rows (core.TransportIRCCE and
// core.TransportLightweight): dropping iRCCE's "expensive listkeeping"
// is where the additional ~65% Allreduce speedup over iRCCE comes from.
package lwnb

import (
	"scc/internal/core"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

// Costs returns the lightweight library's software-overhead row for a
// model.
func Costs(m *timing.Model) rcce.NBCosts { return core.TransportLightweight.Costs(m) }

// Lib is a per-UE handle on the lightweight primitives.
type Lib struct {
	ue    *rcce.UE
	costs rcce.NBCosts
}

// New creates the library handle for one UE.
func New(ue *rcce.UE) *Lib { return &Lib{ue: ue, costs: Costs(ue.Core().Chip().Model)} }

// ISend posts the non-blocking send into the UE's send slot.
func (l *Lib) ISend(dest int, addr scc.Addr, nBytes int) *rcce.Request {
	return l.ue.PostSend(l.costs, dest, addr, nBytes)
}

// IRecv posts the non-blocking receive into the UE's receive slot.
func (l *Lib) IRecv(src int, addr scc.Addr, nBytes int) *rcce.Request {
	return l.ue.PostRecv(l.costs, src, addr, nBytes)
}

// Wait blocks until r completes (a posted request's wait cannot fail).
func (l *Lib) Wait(r *rcce.Request) { _ = l.ue.WaitAll(l.costs, r) }
