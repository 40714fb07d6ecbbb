package core

import "scc/internal/scc"

// Algorithms implemented outside internal/core (today: the synthesized
// schedules in internal/synth) run on the same primitives as the
// built-in ones — NP, Rank, Member, MultiChip, RootRank, ReduceInto and
// CopyPrivate are the Ctx methods the built-ins call — plus these two
// accessors for state the built-ins reach through fields. An
// out-of-package Algorithm is a peer of the built-ins rather than a
// special case. Nothing here adds simulated work.

// Endpoint exposes the context's point-to-point transport, the same
// layer the built-in algorithms run over.
func (x *Ctx) Endpoint() Endpoint { return x.ep }

// ScratchPair sizes the two private scratch vectors to at least n
// elements and returns their addresses (working copy, receive staging).
// The pair is reused across calls on the same context; a collective
// owns it only for the duration of one call.
func (x *Ctx) ScratchPair(n int) (cur, rbuf scc.Addr) {
	x.ensureScratch(n)
	return x.curAddr, x.rbufAddr
}
