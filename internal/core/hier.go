package core

import (
	"fmt"

	"scc/internal/scc"
)

// Hierarchical collectives: a multi-chip system composes any registered
// intra-chip algorithm with an inter-chip exchange over the fabric —
// reduce inside each chip, exchange the per-chip partials between
// gateway cores (core 0 of every chip), broadcast the global result
// back inside each chip. The dispatcher runs the composition on every
// multi-chip context before any selection, so it is not a registry
// entry; the context's selector picks the intra-chip phases, and trace
// spans and metrics breakdowns label the whole call "hier".

// ErrCrossChip marks collectives with no hierarchical implementation:
// on a multi-chip context only Allreduce, Broadcast and Barrier span
// chips; the rest return this typed error instead of silently running
// chip-local.
var ErrCrossChip = fmt.Errorf("%w: collective does not span chips", ErrInvalid)

// MultiChip reports whether collectives on this context must span chips
// (it has a fabric port, see CtxOpts.Port); single-chip algorithms are
// not applicable then.
func (x *Ctx) MultiChip() bool { return x.port != nil }

// GlobalNP returns the system-wide rank count (all chips).
func (x *Ctx) GlobalNP() int {
	if x.MultiChip() {
		return x.port.NumChips() * x.ue.NumUEs()
	}
	return x.NP()
}

// inner returns the chip-local sub-context the intra-chip phases run
// on: same UE, transport and selector, no fabric port. Built once
// per Ctx and cached, with a partition memo and ring vectors of its
// own.
func (x *Ctx) inner() *Ctx {
	if x.hierInner == nil {
		in := *x
		in.port = nil
		in.partBuf = nil
		in.partN, in.partP, in.partBal = 0, 0, false
		in.scratchLen = -1
		in.hierInner = nil
		x.hierInner = &in
	}
	return x.hierInner
}

// gatewayExchange combines the chip-local partial at dst (n elements)
// across chips through the fabric and leaves the global result at dst.
// Gateway (core 0) only. Chip 0 is the hub: it collects every other
// chip's partial, reduces them in order (deterministic for any op, even
// a non-commutative one), and ships the result back. At n = 0 it is the
// barrier's token exchange: nothing is read, reduced or written, and op
// is never called.
func (x *Ctx) gatewayExchange(dst scc.Addr, n int, op Op) {
	f := x.port
	core := x.ue.Core()
	v := core.ScratchF64(0, n)
	core.ReadF64s(dst, v)
	if f.Chip() == 0 {
		r := core.ScratchF64(1, n)
		for c := 1; c < f.NumChips(); c++ {
			f.Recv(core, c, r)
			core.ComputeCycles(core.Chip().Model.ReducePerElementCoreCycles * int64(n))
			for i := range v {
				v[i] = op(v[i], r[i])
			}
		}
		for c := 1; c < f.NumChips(); c++ {
			f.Send(core, c, v)
		}
	} else {
		f.Send(core, 0, v)
		f.Recv(core, 0, v)
	}
	core.WriteF64s(dst, v)
}

// hierName labels the composition in trace spans and metrics
// breakdowns ("allreduce[hier]").
const hierName = "hier"

// hierAllreduce is the multi-chip Allreduce: the intra-chip Allreduce,
// the gateway exchange of the chip partials, then an intra-chip
// Broadcast of the global result.
func (x *Ctx) hierAllreduce(src, dst scc.Addr, n int, op Op) error {
	in := x.inner()
	if err := in.Allreduce(src, dst, n, op); err != nil {
		return err
	}
	if x.ue.ID() == 0 && n > 0 {
		x.gatewayExchange(dst, n, op)
	}
	// Intra-chip broadcast of the global result from the gateway. For
	// n == 0 this still runs (a no-op data-wise) so every rank leaves
	// the collective having synchronized with its gateway.
	return in.Broadcast(0, dst, n)
}

// hierBroadcast is the multi-chip Broadcast from the system-global core
// root: the root's chip broadcasts inside, its gateway sends the vector
// to every other gateway, and each of those broadcasts inside its chip.
func (x *Ctx) hierBroadcast(root int, addr scc.Addr, n int) error {
	f := x.port
	in := x.inner()
	perChip := x.ue.NumUEs()
	rootChip, localRoot := root/perChip, root%perChip
	core := x.ue.Core()
	if f.Chip() == rootChip {
		if err := in.Broadcast(localRoot, addr, n); err != nil {
			return err
		}
		if x.ue.ID() == 0 {
			v := core.ScratchF64(0, n)
			core.ReadF64s(addr, v)
			for c := 0; c < f.NumChips(); c++ {
				if c != f.Chip() {
					f.Send(core, c, v)
				}
			}
		}
		return nil
	}
	if x.ue.ID() == 0 {
		v := core.ScratchF64(0, n)
		f.Recv(core, rootChip, v)
		core.WriteF64s(addr, v)
	}
	return in.Broadcast(0, addr, n)
}

// hierBarrier is the multi-chip barrier: intra-chip barrier (arrival),
// the gateway exchange with an empty payload (a barrier is the
// payload-free gather–release), then a second intra-chip barrier
// (release). Dispatched from barrierBody like the other two.
func (x *Ctx) hierBarrier() error {
	in := x.inner()
	if err := in.Barrier(); err != nil {
		return err
	}
	if x.ue.ID() == 0 {
		x.gatewayExchange(0, 0, nil)
	}
	return in.Barrier()
}
