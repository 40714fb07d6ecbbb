package core

import "scc/internal/scc"

// allreduceRecDouble is the "recdouble" Allreduce: ceil(log2 p)
// full-vector exchange+reduce steps instead of the ring's 2(p-1) block
// rounds. For non-power-of-two communicators the standard fold applies:
// the first 2*(p - 2^k) ranks collapse pairwise onto the odd member, the
// surviving 2^k ranks run the doubling, and the folded ranks receive the
// result afterwards.
func (x *Ctx) allreduceRecDouble(src, dst scc.Addr, n int, op Op) error {
	p := x.NP()
	me := x.Rank()
	x.CopyPrivate(dst, src, n)
	if p == 1 || n == 0 {
		return nil
	}
	x.ensureScratch(n)

	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2

	// Fold: ranks [0, 2*rem) collapse pairwise; evens hand their vector
	// to the odd neighbor and sit out the doubling.
	newRank := -1
	switch {
	case me < 2*rem && me%2 == 0:
		if err := x.ep.Send(x.Member(me+1), dst, 8*n); err != nil {
			return err
		}
	case me < 2*rem:
		if err := x.ep.Recv(x.Member(me-1), x.rbufAddr, 8*n); err != nil {
			return err
		}
		x.ReduceInto(dst, dst, x.rbufAddr, n, op)
		newRank = me / 2
	default:
		newRank = me - rem
	}

	if newRank >= 0 {
		realOf := func(nr int) int {
			if nr < rem {
				return nr*2 + 1
			}
			return nr + rem
		}
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := x.Member(realOf(newRank ^ mask))
			if err := x.ep.Exchange(partner, dst, 8*n, partner, x.rbufAddr, 8*n); err != nil {
				return err
			}
			x.ReduceInto(dst, dst, x.rbufAddr, n, op)
		}
	}

	// Unfold: folded even ranks receive the finished vector from the odd
	// neighbor that carried their contribution.
	switch {
	case me < 2*rem && me%2 == 0:
		return x.ep.Recv(x.Member(me+1), dst, 8*n)
	case me < 2*rem:
		return x.ep.Send(x.Member(me-1), dst, 8*n)
	}
	return nil
}
