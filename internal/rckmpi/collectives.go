package rckmpi

import "scc/internal/scc"

// Op is an associative binary reduction operator (mirrors core.Op; the
// package does not import internal/core to stay independently usable).
type Op func(a, b float64) float64

func mod(a, p int) int { return ((a % p) + p) % p }

// Bcast broadcasts n float64 values at addr from root along a binomial
// tree (the MPICH default for this message range).
func (l *Lib) Bcast(root int, addr scc.Addr, n int) {
	p := l.ue.NumUEs()
	me := l.ue.ID()
	vrank := mod(me-root, p)
	// Receive from parent.
	if vrank != 0 {
		mask := 1
		for mask < p {
			if vrank&mask != 0 {
				parent := mod(root+(vrank&^mask), p)
				l.Recv(parent, addr, 8*n)
				break
			}
			mask <<= 1
		}
		// Forward to children below the found mask.
		for mask >>= 1; mask > 0; mask >>= 1 {
			if child := vrank | mask; child < p && child != vrank {
				l.Send(mod(root+child, p), addr, 8*n)
			}
		}
		return
	}
	// Root: send to each subtree, highest mask first.
	mask := 1
	for mask < p {
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := mask; child < p {
			l.Send(mod(root+child, p), addr, 8*n)
		}
	}
}

// Reduce reduces n float64 values element-wise to the root along a
// binomial tree. dst is only meaningful on the root; src is unchanged.
func (l *Lib) Reduce(root int, src, dst scc.Addr, n int, op Op) {
	p := l.ue.NumUEs()
	me := l.ue.ID()
	c := l.core()
	m := c.Chip().Model
	vrank := mod(me-root, p)

	// Working accumulator starts as a copy of src.
	acc := make([]float64, n)
	c.ReadF64s(src, acc)
	tmpAddr := c.AllocF64(n)
	tmp := make([]float64, n)

	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			parent := mod(root+(vrank&^mask), p)
			// Ship the accumulator up and stop.
			accAddr := c.AllocF64(n)
			c.WriteF64s(accAddr, acc)
			l.Send(parent, accAddr, 8*n)
			return
		}
		if child := vrank | mask; child < p {
			l.Recv(mod(root+child, p), tmpAddr, 8*n)
			c.ReadF64s(tmpAddr, tmp)
			c.ComputeCycles(m.ReducePerElementCoreCycles * int64(n))
			for i := range acc {
				acc[i] = op(acc[i], tmp[i])
			}
		}
		mask <<= 1
	}
	c.WriteF64s(dst, acc)
}

// Allreduce is RCKMPI's Reduce-to-0 followed by Bcast (the MPICH
// composition for this communicator size and message range).
func (l *Lib) Allreduce(src, dst scc.Addr, n int, op Op) {
	l.Reduce(0, src, dst, n, op)
	l.Bcast(0, dst, n)
}

// Allgather gathers each core's nPer elements (at src) into dst
// (p*nPer, rank-ordered) with the MPICH ring algorithm.
func (l *Lib) Allgather(src scc.Addr, nPer int, dst scc.Addr) {
	p := l.ue.NumUEs()
	me := l.ue.ID()
	// Place own contribution.
	l.copyPriv(dst+scc.Addr(8*nPer*me), src, nPer)
	right := mod(me+1, p)
	left := mod(me-1, p)
	for r := 0; r < p-1; r++ {
		sendIdx := mod(me-r, p)
		recvIdx := mod(me-1-r, p)
		sAddr := dst + scc.Addr(8*nPer*sendIdx)
		rAddr := dst + scc.Addr(8*nPer*recvIdx)
		// Rendezvous ring: odd-even ordering avoids the cycle deadlock.
		if me%2 == 0 {
			l.Send(right, sAddr, 8*nPer)
			l.Recv(left, rAddr, 8*nPer)
		} else {
			l.Recv(left, rAddr, 8*nPer)
			l.Send(right, sAddr, 8*nPer)
		}
	}
}

// Alltoall performs the complete exchange with MPICH's pairwise schedule.
func (l *Lib) Alltoall(src, dst scc.Addr, nPer int) {
	p := l.ue.NumUEs()
	me := l.ue.ID()
	for r := 0; r < p; r++ {
		partner := mod(r-me, p)
		sAddr := src + scc.Addr(8*nPer*partner)
		rAddr := dst + scc.Addr(8*nPer*partner)
		if partner == me {
			l.copyPriv(rAddr, sAddr, nPer)
			continue
		}
		if nPer == 0 {
			continue
		}
		l.sendRecvPair(partner, sAddr, 8*nPer, rAddr, 8*nPer)
	}
}

// Scatter distributes block q of the root's src (p blocks of nPer
// float64 values) to rank q's dst as a root loop of point-to-point
// sends through the channel — a degenerate alltoall, with a handshake
// per peer even for empty blocks.
func (l *Lib) Scatter(root int, src scc.Addr, nPer int, dst scc.Addr) {
	if l.ue.ID() != root {
		l.Recv(root, dst, 8*nPer)
		return
	}
	for q := 0; q < l.ue.NumUEs(); q++ {
		if q == root {
			l.copyPriv(dst, src+scc.Addr(8*nPer*q), nPer)
			continue
		}
		l.Send(q, src+scc.Addr(8*nPer*q), 8*nPer)
	}
}

// Gather collects each rank's nPer values into the root's dst,
// rank-ordered; the mirror image of Scatter.
func (l *Lib) Gather(root int, src scc.Addr, nPer int, dst scc.Addr) {
	if l.ue.ID() != root {
		l.Send(root, src, 8*nPer)
		return
	}
	for q := 0; q < l.ue.NumUEs(); q++ {
		if q == root {
			l.copyPriv(dst+scc.Addr(8*nPer*q), src, nPer)
			continue
		}
		l.Recv(q, dst+scc.Addr(8*nPer*q), 8*nPer)
	}
}

// copyPriv copies n float64 values between private addresses through a
// host-side staging vector (cache-priced read, then write).
func (l *Lib) copyPriv(dst, src scc.Addr, n int) {
	v := make([]float64, n)
	l.core().ReadF64s(src, v)
	l.core().WriteF64s(dst, v)
}

// ReduceScatter reduces element-wise and scatters equal consecutive
// blocks (MPI_Reduce_scatter_block semantics over the RCCE_comm-style
// partition): implemented as Reduce to 0 plus a scatter of the blocks,
// MPICH's fallback for irregular communicator sizes. dst receives this
// core's block; blocks follow the unbalanced RCCE_comm partition so the
// comparator matches the baseline's data layout.
func (l *Lib) ReduceScatter(src, dst scc.Addr, n int, op Op) {
	p := l.ue.NumUEs()
	me := l.ue.ID()
	c := l.core()
	full := c.AllocF64(n)
	l.Reduce(0, src, full, n, op)
	// Scatter the blocks from the root.
	base := n / p
	first := base + n%p
	offOf := func(q int) (off, ln int) {
		if q == 0 {
			return 0, first
		}
		return first + (q-1)*base, base
	}
	if me == 0 {
		for q := 1; q < p; q++ {
			off, ln := offOf(q)
			if ln > 0 {
				l.Send(q, full+scc.Addr(8*off), 8*ln)
			}
		}
		_, ln := offOf(0)
		l.copyPriv(dst, full, ln)
		return
	}
	_, ln := offOf(me)
	if ln > 0 {
		l.Recv(0, dst, 8*ln)
	}
}
