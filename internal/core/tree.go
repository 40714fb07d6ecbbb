package core

import "scc/internal/scc"

// Short-message variants. RCCE_comm "contains the most complete suite of
// collective operations currently available for the SCC, including
// variants for different message sizes" (Sec. III): for vectors too
// short to amortize the 47-round scatter/ring structure, binomial trees
// ([8], [9]) finish in ceil(log2 p) levels. Broadcast and Reduce select
// the tree below the threshold; above it they use the block-partitioned
// long-message algorithms of Sec. IV.

// shortMessageThresholdBytes separates the tree variants from the
// scatter/ring variants. Below ~one cache line per block the ring's
// per-round handshakes dominate any bandwidth advantage.
const shortMessageThresholdBytes = 512

// BroadcastTree distributes n float64 values from root (a core ID) along
// a binomial tree, regardless of size.
func (x *Ctx) BroadcastTree(root int, addr scc.Addr, n int) error {
	return x.collective("BroadcastTree", n, false, func() error { return x.broadcastTree(root, addr, n) })
}

func (x *Ctx) broadcastTree(root int, addr scc.Addr, n int) error {
	rootR, err := x.RootRank("BroadcastTree", root)
	if err != nil {
		return err
	}
	p := x.NP()
	me := x.Rank()
	if p == 1 || n == 0 {
		return nil
	}
	vrank := mod(me-rootR, p)
	if vrank != 0 {
		// Find my lowest set bit: the parent holds the rest.
		mask := 1
		for vrank&mask == 0 {
			mask <<= 1
		}
		parent := x.Member(mod(rootR+(vrank&^mask), p))
		if err := x.ep.Recv(parent, addr, 8*n); err != nil {
			return err
		}
		// Forward to my subtree (bits below my lowest set bit).
		for mask >>= 1; mask > 0; mask >>= 1 {
			if child := vrank | mask; child < p {
				if err := x.ep.Send(x.Member(mod(rootR+child, p)), addr, 8*n); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Root: highest subtree first.
	mask := 1
	for mask < p {
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if mask < p {
			if err := x.ep.Send(x.Member(mod(rootR+mask, p)), addr, 8*n); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReduceTree reduces to root (a core ID) along a binomial tree: each
// inner node combines its children's partials before forwarding one
// message up. dst is only meaningful on the root; src is left untouched.
func (x *Ctx) ReduceTree(root int, src, dst scc.Addr, n int, op Op) error {
	return x.collective("ReduceTree", n, false, func() error { return x.reduceTree(root, src, dst, n, op) })
}

func (x *Ctx) reduceTree(root int, src, dst scc.Addr, n int, op Op) error {
	rootR, err := x.RootRank("ReduceTree", root)
	if err != nil {
		return err
	}
	p := x.NP()
	me := x.Rank()
	if p == 1 {
		x.CopyPrivate(dst, src, n)
		return nil
	}
	vrank := mod(me-rootR, p)
	x.ensureScratch(n)
	acc := x.curAddr
	x.CopyPrivate(acc, src, n)

	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			parent := x.Member(mod(rootR+(vrank&^mask), p))
			return x.ep.Send(parent, acc, 8*n)
		}
		if child := vrank | mask; child < p {
			if err := x.ep.Recv(x.Member(mod(rootR+child, p)), x.rbufAddr, 8*n); err != nil {
				return err
			}
			x.ReduceInto(acc, acc, x.rbufAddr, n, op)
		}
		mask <<= 1
	}
	x.CopyPrivate(dst, acc, n)
	return nil
}

// shortMessage reports whether the tree variants should handle a vector
// of n float64 values.
func (x *Ctx) shortMessage(n int) bool {
	return 8*n < shortMessageThresholdBytes
}
