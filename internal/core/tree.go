package core

import (
	"scc/internal/rcce"
	"scc/internal/scc"
)

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

// broadcastTree distributes n float64 values from root (a core ID) along
// a binomial tree, regardless of size: rcce's stage-once BroadcastTree
// where treePrimitives holds, and otherwise one transport rendezvous per
// tree edge.
func (x *Ctx) broadcastTree(root int, addr scc.Addr, n int) error {
	rootR, err := x.RootRank("Broadcast", root)
	if err != nil || x.NP() == 1 || n == 0 {
		return err
	}
	if x.treePrimitives() {
		x.ue.BroadcastTree(x.cfg.Transport.Costs(x.ue.Core().Chip().Model), rootR, addr, 8*n)
		return nil
	}
	t := rcce.NewBinomial(rootR, x.Rank(), x.NP())
	if parent := t.Parent; parent >= 0 {
		if err := x.ep.Recv(x.Member(parent), addr, 8*n); err != nil {
			return err
		}
	}
	for child := range t.Children(false) {
		if err := x.ep.Send(x.Member(child), addr, 8*n); err != nil {
			return err
		}
	}
	return nil
}

// reduceTree reduces to root (a core ID) along a binomial tree: each
// inner node combines its children's partials before forwarding one
// message up. dst is only meaningful on the root; src is left untouched.
func (x *Ctx) reduceTree(root int, src, dst scc.Addr, n int, op Op) error {
	rootR, err := x.RootRank("Reduce", root)
	if err != nil {
		return err
	}
	p := x.NP()
	if p == 1 {
		x.CopyPrivate(dst, src, n)
		return nil
	}
	x.ensureScratch(n)
	acc := x.curAddr
	x.CopyPrivate(acc, src, n)
	t := rcce.NewBinomial(rootR, x.Rank(), p)
	for child := range t.Children(true) {
		if err := x.ep.Recv(x.Member(child), x.rbufAddr, 8*n); err != nil {
			return err
		}
		x.ReduceInto(acc, acc, x.rbufAddr, n, op)
	}
	if parent := t.Parent; parent >= 0 {
		return x.ep.Send(x.Member(parent), acc, 8*n)
	}
	x.CopyPrivate(dst, acc, n)
	return nil
}

// shortMessage reports whether the tree variants should handle a vector
// of n float64 values.
func (x *Ctx) shortMessage(n int) bool {
	return 8*n < shortMessageThresholdBytes
}
