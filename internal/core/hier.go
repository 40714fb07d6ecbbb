package core

import (
	"fmt"

	"scc/internal/fabric"
	"scc/internal/scc"
)

// Hierarchical collectives: a multi-chip system composes any registered
// intra-chip algorithm with an inter-chip exchange over the fabric —
// reduce inside each chip, exchange the per-chip partials between
// gateway cores (core 0 of every chip), broadcast the global result
// back inside each chip. Because the composition is itself a registered
// algorithm ("hier"), the tuner, metrics breakdowns, trace spans and
// the self-healing wrapper all see it like any other algorithm.

// Fabric describes a context's place in a multi-chip fabric.System.
// The same value is shared by every core of one chip.
type Fabric struct {
	// Port is the chip's fabric endpoint.
	Port *fabric.Port
	// Chip is this chip's index, Chips the system size.
	Chip, Chips int
	// Intra optionally forces the intra-chip algorithm by registry name
	// ("ring", "tree", ...); empty means the context's own selector (or
	// the paper heuristic) picks per phase.
	Intra string
}

// ErrCrossChip marks collectives with no hierarchical implementation:
// on a multi-chip context only Allreduce, Broadcast and Barrier span
// chips; the rest return this typed error instead of silently running
// chip-local.
var ErrCrossChip = fmt.Errorf("%w: collective does not span chips", ErrInvalid)

// MultiChip reports whether collectives on this context must span chips
// (see Fabric); single-chip algorithms are not applicable then.
func (x *Ctx) MultiChip() bool { return x.fab != nil && x.fab.Chips > 1 }

// GlobalNP returns the system-wide rank count (all chips).
func (x *Ctx) GlobalNP() int {
	if x.MultiChip() {
		return x.fab.Chips * x.ue.NumUEs()
	}
	return x.NP()
}

// hierAlg is the sixth-layer composition. Applicable only on fabric
// contexts spanning more than one chip, where the dispatcher forces it;
// on single-chip contexts the tuner and selectors skip it.
type hierAlg struct{}

func (hierAlg) Name() string { return "hier" }
func (hierAlg) Describe() string {
	return "hierarchical multi-chip composition: intra-chip reduce, gateway fabric exchange, intra-chip broadcast"
}
func (hierAlg) Applicable(x *Ctx, n int) bool { return x.MultiChip() }

// inner returns the chip-local sub-context the intra-chip phases run
// on: same UE, transport and healer, no fabric, optionally a forced
// intra-chip algorithm. Built once per Ctx and cached — its scratch
// then persists across calls just like the parent's.
func (x *Ctx) inner() *Ctx {
	if x.hierInner == nil {
		in := *x
		in.fab = nil
		if x.fab != nil && x.fab.Intra != "" {
			in.cfg.Selector = Fixed(x.fab.Intra)
		}
		// Fresh scratch: the parent's buffers may be live mid-call.
		in.vecA, in.vecB, in.gatherBuf = nil, nil, nil
		in.partBuf = nil
		in.partN, in.partP, in.partBal = 0, 0, false
		in.scratchLen = -1
		in.scrNode = nil
		in.hierInner = nil
		x.hierInner = &in
	}
	return x.hierInner
}

// gatewayExchange combines the chip-local partial at dst (n elements)
// across chips through the fabric and leaves the global result at dst.
// Gateway (core 0) only. Chip 0 is the hub: it collects every other
// chip's partial, reduces them in order (deterministic for any op, even
// a non-commutative one), and ships the result back.
func (x *Ctx) gatewayExchange(dst scc.Addr, n int, op Op) {
	f := x.fab
	core := x.ue.Core()
	v := scratchF64(&x.gatherBuf, n)
	core.ReadF64s(dst, v)
	if f.Chip == 0 {
		r := scratchF64(&x.vecB, n)
		for c := 1; c < f.Chips; c++ {
			f.Port.Recv(core, c, r)
			core.ComputeCycles(core.Chip().Model.ReducePerElementCoreCycles * int64(n))
			for i := range v {
				v[i] = op(v[i], r[i])
			}
		}
		for c := 1; c < f.Chips; c++ {
			f.Port.Send(core, c, v)
		}
	} else {
		f.Port.Send(core, 0, v)
		f.Port.Recv(core, 0, v)
	}
	core.WriteF64s(dst, v)
}

func (hierAlg) Allreduce(x *Ctx, src, dst scc.Addr, n int, op Op) error {
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

func (hierAlg) Broadcast(x *Ctx, root int, addr scc.Addr, n int) error {
	f := x.fab
	in := x.inner()
	perChip := x.ue.NumUEs()
	rootChip, localRoot := root/perChip, root%perChip
	core := x.ue.Core()
	if f.Chip == rootChip {
		if err := in.Broadcast(localRoot, addr, n); err != nil {
			return err
		}
		if x.ue.ID() == 0 {
			v := scratchF64(&x.gatherBuf, n)
			core.ReadF64s(addr, v)
			for c := 0; c < f.Chips; c++ {
				if c != f.Chip {
					f.Port.Send(core, c, v)
				}
			}
		}
		return nil
	}
	if x.ue.ID() == 0 {
		v := scratchF64(&x.gatherBuf, n)
		f.Port.Recv(core, rootChip, v)
		core.WriteF64s(addr, v)
	}
	return in.Broadcast(0, addr, n)
}

// hierBarrier is the multi-chip barrier: intra-chip barrier (arrival),
// a zero-payload gateway token exchange through chip 0, then a second
// intra-chip barrier (release). Dispatched from barrierBody, not the
// registry — Barrier has no algorithm selection.
func (x *Ctx) hierBarrier() error {
	in := x.inner()
	if err := in.Barrier(); err != nil {
		return err
	}
	if x.ue.ID() == 0 {
		f := x.fab
		core := x.ue.Core()
		if f.Chip == 0 {
			for c := 1; c < f.Chips; c++ {
				f.Port.Recv(core, c, nil)
			}
			for c := 1; c < f.Chips; c++ {
				f.Port.Send(core, c, nil)
			}
		} else {
			f.Port.Send(core, 0, nil)
			f.Port.Recv(core, 0, nil)
		}
	}
	return in.Barrier()
}
