package rckmpi

import (
	"fmt"

	"scc/internal/core"
	"scc/internal/rcce"
	"scc/internal/scc"
)

// Lib is called like every other stack.
var _ core.Collectives = Lib{}

func mod(a, p int) int { return ((a % p) + p) % p }

// check refuses a negative count or a root outside [0, p) with
// core.ErrInvalid before anything is simulated, as the core stacks do.
// Past it the library never fails (only Scan, which it lacks, is
// refused): it models a C MPI, and selectors, recovery and
// self-healing do not reach it.
func (l Lib) check(fn string, n, root int) error {
	if n < 0 {
		return fmt.Errorf("rckmpi: %s: %w: negative count %d", fn, core.ErrInvalid, n)
	}
	if np := l.ue.NumUEs(); root < 0 || root >= np {
		return fmt.Errorf("rckmpi: %s: %w: root %d outside [0,%d)", fn, core.ErrInvalid, root, np)
	}
	return nil
}

// Barrier delegates to the underlying flag barrier.
func (l Lib) Barrier() error {
	l.ue.Barrier()
	return nil
}

// Broadcast broadcasts n float64 values at addr from root along a
// binomial tree (the MPICH default for this message range).
func (l Lib) Broadcast(root int, addr scc.Addr, n int) error {
	if err := l.check("Broadcast", n, root); err != nil {
		return err
	}
	t := rcce.NewBinomial(root, l.ue.ID(), l.ue.NumUEs())
	if parent := t.Parent; parent >= 0 {
		l.Recv(parent, addr, 8*n)
	}
	for child := range t.Children(false) {
		l.Send(child, addr, 8*n)
	}
	return nil
}

// Reduce reduces n float64 values element-wise to the root along a
// binomial tree. dst is only meaningful on the root; src is unchanged.
func (l Lib) Reduce(root int, src, dst scc.Addr, n int, op core.Op) error {
	if err := l.check("Reduce", n, root); err != nil {
		return err
	}
	c := l.core()
	acc := c.ScratchF64(0, n) // the working accumulator, a copy of src first
	c.ReadF64s(src, acc)
	tmpAddr := c.AllocF64(n)
	tmp := c.ScratchF64(1, n)

	t := rcce.NewBinomial(root, l.ue.ID(), l.ue.NumUEs())
	for child := range t.Children(true) {
		l.Recv(child, tmpAddr, 8*n)
		c.ReadF64s(tmpAddr, tmp)
		c.ComputeCycles(c.Chip().Model.ReducePerElementCoreCycles * int64(n))
		for i := range acc {
			acc[i] = op(acc[i], tmp[i])
		}
	}
	if parent := t.Parent; parent >= 0 { // ship the accumulator up and stop
		accAddr := c.AllocF64(n)
		c.WriteF64s(accAddr, acc)
		l.Send(parent, accAddr, 8*n)
		return nil
	}
	c.WriteF64s(dst, acc)
	return nil
}

// Allreduce is RCKMPI's Reduce-to-0 followed by Broadcast (the MPICH
// composition for this communicator size and message range).
func (l Lib) Allreduce(src, dst scc.Addr, n int, op core.Op) error {
	if err := l.check("Allreduce", n, 0); err != nil {
		return err
	}
	_ = l.Reduce(0, src, dst, n, op) // past the check, neither fails
	return l.Broadcast(0, dst, n)
}

// Allgather gathers each core's nPer elements (at src) into dst
// (p*nPer, rank-ordered) with the MPICH ring algorithm.
func (l Lib) Allgather(src scc.Addr, nPer int, dst scc.Addr) error {
	if err := l.check("Allgather", nPer, 0); err != nil {
		return err
	}
	p, me := l.ue.NumUEs(), l.ue.ID()
	l.copyPriv(dst+scc.Addr(8*nPer*me), src, nPer) // own contribution
	right, left := mod(me+1, p), mod(me-1, p)
	for r := 0; r < p-1; r++ {
		sAddr := dst + scc.Addr(8*nPer*mod(me-r, p))
		rAddr := dst + scc.Addr(8*nPer*mod(me-1-r, p))
		// Rendezvous ring: odd-even ordering avoids the cycle deadlock.
		if me%2 == 0 {
			l.Send(right, sAddr, 8*nPer)
			l.Recv(left, rAddr, 8*nPer)
		} else {
			l.Recv(left, rAddr, 8*nPer)
			l.Send(right, sAddr, 8*nPer)
		}
	}
	return nil
}

// Alltoall performs the complete exchange with MPICH's pairwise schedule.
func (l Lib) Alltoall(src, dst scc.Addr, nPer int) error {
	if err := l.check("Alltoall", nPer, 0); err != nil {
		return err
	}
	p, me := l.ue.NumUEs(), l.ue.ID()
	for r := 0; r < p; r++ {
		partner := mod(r-me, p)
		sAddr := src + scc.Addr(8*nPer*partner)
		rAddr := dst + scc.Addr(8*nPer*partner)
		switch {
		case partner == me:
			l.copyPriv(rAddr, sAddr, nPer)
		case nPer > 0:
			l.sendRecvPair(partner, sAddr, 8*nPer, rAddr, 8*nPer)
		}
	}
	return nil
}

// Scatter distributes block q of the root's src (p blocks of nPer
// float64 values) to rank q's dst as a root loop of point-to-point
// sends through the channel — a degenerate alltoall, with a handshake
// per peer even for empty blocks.
func (l Lib) Scatter(root int, src scc.Addr, nPer int, dst scc.Addr) error {
	if err := l.check("Scatter", nPer, root); err != nil {
		return err
	}
	if l.ue.ID() != root {
		l.Recv(root, dst, 8*nPer)
		return nil
	}
	for q := 0; q < l.ue.NumUEs(); q++ {
		if q == root {
			l.copyPriv(dst, src+scc.Addr(8*nPer*q), nPer)
			continue
		}
		l.Send(q, src+scc.Addr(8*nPer*q), 8*nPer)
	}
	return nil
}

// Gather collects each rank's nPer values into the root's dst,
// rank-ordered; the mirror image of Scatter.
func (l Lib) Gather(root int, src scc.Addr, nPer int, dst scc.Addr) error {
	if err := l.check("Gather", nPer, root); err != nil {
		return err
	}
	if l.ue.ID() != root {
		l.Send(root, src, 8*nPer)
		return nil
	}
	for q := 0; q < l.ue.NumUEs(); q++ {
		if q == root {
			l.copyPriv(dst+scc.Addr(8*nPer*q), src, nPer)
			continue
		}
		l.Recv(q, dst+scc.Addr(8*nPer*q), 8*nPer)
	}
	return nil
}

// copyPriv copies n float64 values between private addresses through the
// core's host scratch (cache-priced read, then write).
func (l Lib) copyPriv(dst, src scc.Addr, n int) {
	c := l.core()
	v := c.ScratchF64(0, n)
	c.ReadF64s(src, v)
	c.WriteF64s(dst, v)
}

// ReduceScatter reduces element-wise and scatters equal consecutive
// blocks (MPI_Reduce_scatter_block semantics over the RCCE_comm-style
// partition): implemented as Reduce to 0 plus a scatter of the blocks,
// MPICH's fallback for irregular communicator sizes. dst receives this
// core's block; blocks follow the unbalanced RCCE_comm partition so the
// comparator matches the baseline's data layout. It returns no block
// list: the layout is fixed.
func (l Lib) ReduceScatter(src, dst scc.Addr, n int, op core.Op) ([]core.Block, error) {
	if err := l.check("ReduceScatter", n, 0); err != nil {
		return nil, err
	}
	p := l.ue.NumUEs()
	full := l.core().AllocF64(n)
	_ = l.Reduce(0, src, full, n, op) // past the check, it cannot fail
	// Scatter the blocks from the root: block 0 also takes the remainder.
	base, first := n/p, n/p+n%p
	switch {
	case l.ue.ID() == 0:
		for q := 1; q < p && base > 0; q++ {
			l.Send(q, full+scc.Addr(8*(first+(q-1)*base)), 8*base)
		}
		l.copyPriv(dst, full, first)
	case base > 0:
		l.Recv(0, dst, 8*base)
	}
	return nil, nil
}

// Scan is not part of the comparator: ErrInvalid, with nothing simulated.
func (l Lib) Scan(src, dst scc.Addr, n int, op core.Op) error {
	return fmt.Errorf("rckmpi: Scan: %w: not implemented by the RCKMPI comparator", core.ErrInvalid)
}
