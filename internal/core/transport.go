package core

import (
	"fmt"

	"scc/internal/ircce"
	"scc/internal/lwnb"
	"scc/internal/rcce"
	"scc/internal/scc"
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

// String names the transport like the paper's figure legends.
func (k TransportKind) String() string {
	switch k {
	case TransportBlocking:
		return "blocking"
	case TransportIRCCE:
		return "iRCCE"
	case TransportLightweight:
		return "lightweight non-blocking"
	default:
		return fmt.Sprintf("TransportKind(%d)", int(k))
	}
}

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
	// blocking transport the two legs are ordered odd-even (Fig. 4);
	// with non-blocking transports both are posted at once (Fig. 5).
	Exchange(to int, sendAddr scc.Addr, sendBytes int, from int, recvAddr scc.Addr, recvBytes int) error
	// ExchangePair exchanges with a single symmetric partner (both
	// directions with the same peer). The blocking transport orders the
	// legs by rank - the odd-even rule is parity-based and would
	// deadlock when symmetric partners share parity.
	ExchangePair(peer int, sendAddr scc.Addr, sendBytes int, recvAddr scc.Addr, recvBytes int) error
}

// NewEndpoint builds the fault-free endpoint of the given kind for one
// UE.
func NewEndpoint(ue *rcce.UE, kind TransportKind) Endpoint {
	return newEndpoint(ue, Config{Transport: kind})
}

// newEndpoint builds the endpoint for a configuration: the plain
// transport, or its hardened counterpart when Recovery is set.
func newEndpoint(ue *rcce.UE, cfg Config) Endpoint {
	if cfg.Recovery != nil {
		return newRobustEP(ue, cfg.Transport, *cfg.Recovery)
	}
	switch cfg.Transport {
	case TransportBlocking:
		return &blockingEP{ue: ue}
	case TransportIRCCE:
		return &nbEP{lib: ircce.New(ue)}
	case TransportLightweight:
		return &nbEP{lib: lwnb.New(ue)}
	default:
		panic(fmt.Sprintf("core: unknown transport kind %d", int(cfg.Transport)))
	}
}

// blockingEP drives plain RCCE. Exchange must order its two blocking
// calls so that the cyclic pattern cannot deadlock: odd cores receive
// first, even cores send first (the RCCE_comm odd-even scheme whose
// barrier-like over-synchronization Sec. IV-A identifies).
type blockingEP struct {
	ue *rcce.UE
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
	if e.ue.ID()%2 == 0 {
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

// nbLib is what an endpoint needs of a non-blocking library; ircce.Lib
// and lwnb.Lib both have it.
type nbLib interface {
	ISend(dest int, addr scc.Addr, nBytes int) *rcce.Request
	IRecv(src int, addr scc.Addr, nBytes int) *rcce.Request
	Wait(r *rcce.Request)
	WaitAll(reqs ...*rcce.Request)
}

// nbEP drives a non-blocking library (iRCCE or the lightweight
// primitives): both legs posted, then waited.
type nbEP struct {
	lib nbLib
	// legs is Exchange's WaitAll argument list. It lives here because a
	// variadic call through an interface heap-allocates its slice, once
	// per exchange.
	legs [2]*rcce.Request
}

func (e *nbEP) Send(to int, addr scc.Addr, n int) error {
	e.lib.Wait(e.lib.ISend(to, addr, n))
	return nil
}

func (e *nbEP) Recv(from int, addr scc.Addr, n int) error {
	e.lib.Wait(e.lib.IRecv(from, addr, n))
	return nil
}

func (e *nbEP) Exchange(to int, sAddr scc.Addr, sBytes int, from int, rAddr scc.Addr, rBytes int) error {
	e.legs[0] = e.lib.ISend(to, sAddr, sBytes)
	e.legs[1] = e.lib.IRecv(from, rAddr, rBytes)
	e.lib.WaitAll(e.legs[:]...)
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

func newRobustEP(ue *rcce.UE, kind TransportKind, pol rcce.Policy) Endpoint {
	m := ue.Core().Chip().Model
	var costs rcce.NBCosts
	switch kind {
	case TransportBlocking:
		// Blocking RCCE has no post/progress machinery; its per-call
		// overhead all lands on the synchronous call itself.
		costs = rcce.NBCosts{Post: m.OverheadBlockingCall, Wait: 0, Progress: 0}
	case TransportIRCCE:
		costs = ircce.Costs(m)
	case TransportLightweight:
		costs = lwnb.Costs(m)
	default:
		panic(fmt.Sprintf("core: unknown transport kind %d", int(kind)))
	}
	return &robustEP{ue: ue, costs: costs, pol: pol}
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
