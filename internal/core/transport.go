package core

import (
	"fmt"

	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

// TransportKind selects the point-to-point layer under the collectives.
type TransportKind int

// Available transports, in the order the paper introduces them.
const (
	// TransportBlocking is plain RCCE: blocking send/receive with the
	// odd-even ordering in exchanges (the paper's baseline).
	TransportBlocking TransportKind = iota
	// TransportIRCCE uses iRCCE's non-blocking primitives (Sec. IV-A).
	TransportIRCCE
	// TransportLightweight uses the paper's lightweight non-blocking
	// primitives (Sec. IV-B).
	TransportLightweight
)

// transportRow is one point-to-point stack: its figure-legend name and
// the software-overhead row the request engine and the hardened
// transport charge for it. iRCCE and the lightweight primitives run the
// same chunk protocol out of the same two request slots (Sec. IV-B);
// their rows are the whole difference between them.
type transportRow struct {
	name  string
	costs func(m *timing.Model) rcce.NBCosts
}

var transports = [...]transportRow{
	TransportBlocking: {"blocking", func(m *timing.Model) rcce.NBCosts {
		// Blocking RCCE has no post/progress machinery; its per-call
		// overhead all lands on the synchronous call itself. Only the
		// hardened endpoint charges this row.
		return rcce.NBCosts{Post: m.OverheadBlockingCall}
	}},
	TransportIRCCE: {"iRCCE", func(m *timing.Model) rcce.NBCosts {
		// Request allocation and pending-list management on every post
		// and completion.
		return rcce.NBCosts{Post: m.OverheadIRCCEPost, Wait: m.OverheadIRCCEWait, Progress: m.OverheadIRCCEWait / 4}
	}},
	TransportLightweight: {"lightweight non-blocking", func(m *timing.Model) rcce.NBCosts {
		// Fixed slots, no lists, no allocation.
		return rcce.NBCosts{Post: m.OverheadLightweightPost, Wait: m.OverheadLightweightWait, Progress: m.OverheadLightweightWait / 4}
	}},
}

// valid reports whether k names a row of the transport table.
func (k TransportKind) valid() bool { return k >= 0 && int(k) < len(transports) }

// String names the transport like the paper's figure legends.
func (k TransportKind) String() string {
	if !k.valid() {
		return fmt.Sprintf("TransportKind(%d)", int(k))
	}
	return transports[k].name
}

// Costs returns the transport's software-overhead row under model m.
// It panics on an unknown kind.
func (k TransportKind) Costs(m *timing.Model) rcce.NBCosts { return transports[k].costs(m) }

// Endpoint is the per-core transport instance the collectives call into.
// The fault-free transports never fail and always return nil; the
// hardened transport (Config.Recovery != nil) returns rcce.ErrUnreachable
// when a peer stays silent past the retry budget.
type Endpoint interface {
	// Send transmits nBytes of private memory to UE `to`, completing
	// before return.
	Send(to int, addr scc.Addr, nBytes int) error
	// Recv receives nBytes from UE `from` into private memory.
	Recv(from int, addr scc.Addr, nBytes int) error
	// Exchange performs one ring/pairwise round: send to `to` and
	// receive from `from`, completing both before returning. With a
	// blocking transport the two legs are ordered odd-even by
	// communicator rank (Fig. 4); with non-blocking transports both are
	// posted at once (Fig. 5).
	Exchange(to int, sendAddr scc.Addr, sendBytes int, from int, recvAddr scc.Addr, recvBytes int) error
	// ExchangePair exchanges with a single symmetric partner (both
	// directions with the same peer). The blocking transport orders the
	// legs by rank - the odd-even rule is parity-based and would
	// deadlock when symmetric partners share parity.
	ExchangePair(peer int, sendAddr scc.Addr, sendBytes int, recvAddr scc.Addr, recvBytes int) error
}

// NewEndpoint builds the fault-free endpoint of the given kind for one
// UE, ranked by core ID (the full chip). An unknown kind is a
// programmer error and panics.
func NewEndpoint(ue *rcce.UE, kind TransportKind) Endpoint {
	ep, err := newEndpoint(ue, Config{Transport: kind}, nil)
	if err != nil {
		panic(err)
	}
	return ep
}

// newEndpoint builds the endpoint for a configuration: the plain
// transport, or its hardened counterpart when Recovery is set. x is the
// context whose ranks order a blocking exchange (nil: the full chip).
// It returns ErrInvalid for an unknown transport kind.
func newEndpoint(ue *rcce.UE, cfg Config, x *Ctx) (Endpoint, error) {
	if !cfg.Transport.valid() {
		return nil, fmt.Errorf("core: %w: unknown transport kind %d", ErrInvalid, int(cfg.Transport))
	}
	costs := cfg.Transport.Costs(ue.Core().Chip().Model)
	switch {
	case cfg.Recovery != nil:
		return &robustEP{ue: ue, costs: costs, pol: *cfg.Recovery}, nil
	case cfg.Transport == TransportBlocking:
		return &blockingEP{ue: ue, x: x}, nil
	}
	return &nbEP{ue: ue, costs: costs}, nil
}

// blockingEP drives plain RCCE. Exchange must order its two blocking
// calls so that the cyclic pattern cannot deadlock: odd ranks receive
// first, even ranks send first (the RCCE_comm odd-even scheme whose
// barrier-like over-synchronization Sec. IV-A identifies). The parity
// is the communicator rank's, which the ring runs over: on a group
// whose core IDs share one parity, ID parity would have every member
// send first.
type blockingEP struct {
	ue *rcce.UE
	x  *Ctx // the ranking context; nil ranks by core ID
}

func (e *blockingEP) Send(to int, addr scc.Addr, n int) error {
	e.ue.Send(to, addr, n)
	return nil
}

func (e *blockingEP) Recv(from int, addr scc.Addr, n int) error {
	e.ue.Recv(from, addr, n)
	return nil
}

func (e *blockingEP) Exchange(to int, sAddr scc.Addr, sBytes int, from int, rAddr scc.Addr, rBytes int) error {
	rank := e.ue.ID()
	if e.x != nil {
		rank = e.x.Rank()
	}
	if rank%2 == 0 {
		e.ue.Send(to, sAddr, sBytes)
		e.ue.Recv(from, rAddr, rBytes)
	} else {
		e.ue.Recv(from, rAddr, rBytes)
		e.ue.Send(to, sAddr, sBytes)
	}
	return nil
}

func (e *blockingEP) ExchangePair(peer int, sAddr scc.Addr, sBytes int, rAddr scc.Addr, rBytes int) error {
	if e.ue.ID() < peer {
		e.ue.Send(peer, sAddr, sBytes)
		e.ue.Recv(peer, rAddr, rBytes)
	} else {
		e.ue.Recv(peer, rAddr, rBytes)
		e.ue.Send(peer, sAddr, sBytes)
	}
	return nil
}

// nbEP drives the request engine at a non-blocking stack's cost row
// (iRCCE or the lightweight primitives): both legs posted into the UE's
// two slots, then waited.
type nbEP struct {
	ue    *rcce.UE
	costs rcce.NBCosts
}

func (e *nbEP) Send(to int, addr scc.Addr, n int) error {
	e.ue.WaitAll(e.costs, e.ue.PostSend(e.costs, to, addr, n))
	return nil
}

func (e *nbEP) Recv(from int, addr scc.Addr, n int) error {
	e.ue.WaitAll(e.costs, e.ue.PostRecv(e.costs, from, addr, n))
	return nil
}

func (e *nbEP) Exchange(to int, sAddr scc.Addr, sBytes int, from int, rAddr scc.Addr, rBytes int) error {
	s := e.ue.PostSend(e.costs, to, sAddr, sBytes)
	r := e.ue.PostRecv(e.costs, from, rAddr, rBytes)
	e.ue.WaitAll(e.costs, s, r)
	return nil
}

func (e *nbEP) ExchangePair(peer int, sAddr scc.Addr, sBytes int, rAddr scc.Addr, rBytes int) error {
	return e.Exchange(peer, sAddr, sBytes, peer, rAddr, rBytes)
}

// robustEP runs every leg over the hardened protocol (sequence numbers,
// per-line checksums, bounded waits, retransmit with backoff) at the
// software-overhead profile of the selected transport. Exchanges run
// full duplex through the shared robust engine — the hardened protocol
// is deadlock-free without odd-even ordering, since every wait is
// bounded — so even the "blocking" profile exchanges both legs at once.
type robustEP struct {
	ue    *rcce.UE
	costs rcce.NBCosts
	pol   rcce.Policy
}

func (e *robustEP) Send(to int, addr scc.Addr, n int) error {
	return e.ue.SendRobust(e.costs, e.pol, to, addr, n)
}

func (e *robustEP) Recv(from int, addr scc.Addr, n int) error {
	return e.ue.RecvRobust(e.costs, e.pol, from, addr, n)
}

func (e *robustEP) Exchange(to int, sAddr scc.Addr, sBytes int, from int, rAddr scc.Addr, rBytes int) error {
	return e.ue.ExchangeRobust(e.costs, e.pol, to, sAddr, sBytes, from, rAddr, rBytes)
}

func (e *robustEP) ExchangePair(peer int, sAddr scc.Addr, sBytes int, rAddr scc.Addr, rBytes int) error {
	return e.ue.ExchangeRobust(e.costs, e.pol, peer, sAddr, sBytes, peer, rAddr, rBytes)
}
