package core

import (
	"fmt"

	"scc/internal/scc"
)

// The block-wise collectives — Allgather, Alltoall, Scatter, Gather —
// and their variable-count "v" variants. One body exists per operation
// (one ring, one pairwise loop, one root loop each way) and it runs on a
// per-rank block layout; the fixed-count call is the uniform layout
// (block q = nPer elements at q*nPer), the V call brings its own list.
// RCCE_comm-era applications with irregular decompositions need the
// per-rank counts; the schedules generalize directly, reusing the Block
// machinery of the partitioned collectives.

// validateBlocks rejects malformed per-rank layouts.
func validateBlocks(fn string, blocks []Block, p int) error {
	if len(blocks) != p {
		return fmt.Errorf("core: %s: %w: got %d blocks, need exactly one per rank (%d)", fn, ErrInvalid, len(blocks), p)
	}
	for i, b := range blocks {
		if b.Len < 0 || b.Off < 0 {
			return fmt.Errorf("core: %s: %w: block %d has negative geometry {Off:%d Len:%d}", fn, ErrInvalid, i, b.Off, b.Len)
		}
	}
	return nil
}

// layout is a per-rank block layout: an explicit list (blocks[q] for
// rank q), or — blocks nil — the uniform one of a fixed-count call, which
// needs no list and is dense for whatever group an attempt runs on.
type layout struct {
	blocks []Block
	nPer   int
}

// at returns rank q's block.
func (l layout) at(q int) Block {
	if l.blocks != nil {
		return l.blocks[q]
	}
	return Block{Off: q * l.nPer, Len: l.nPer}
}

// liveBlocks returns the layout a V body runs on. blocks has one entry
// per rank of the communicator the call was made on (entry: its group,
// nil for all cores); when a healed re-execution runs on fewer members,
// the survivors keep their own blocks — same offsets, the dead ranks'
// blocks are simply not moved.
func (x *Ctx) liveBlocks(blocks []Block, entry *Group) layout {
	p := x.NP()
	if len(blocks) == p {
		return layout{blocks: blocks} // membership only ever shrinks within a call
	}
	live := make([]Block, p)
	for q := range live {
		r := x.Member(q)
		if entry != nil {
			r = entry.RankOf(r)
		}
		live[q] = blocks[r]
	}
	return layout{blocks: live}
}

// Allgather concatenates each core's nPer-element contribution (at src)
// into dst (p*nPer elements, ordered by rank) on every core, using the
// ring algorithm.
func (x *Ctx) Allgather(src scc.Addr, nPer int, dst scc.Addr) error {
	return x.collective("Allgather", nPer, false, func() error {
		return x.allgatherBody(src, layout{nPer: nPer}, dst)
	})
}

// AllgatherV concatenates variable-sized contributions: rank q owns
// blocks[q] of the destination layout and provides blocks[q].Len
// elements at src. After the call every rank's dst holds all blocks at
// their offsets.
func (x *Ctx) AllgatherV(src scc.Addr, blocks []Block, dst scc.Addr) error {
	entry := x.grp
	return x.collective("AllgatherV", 0, false, func() error {
		return x.allgatherBody(src, x.liveBlocks(blocks, entry), dst)
	}, blocks)
}

func (x *Ctx) allgatherBody(src scc.Addr, l layout, dst scc.Addr) error {
	// Place my contribution, then ring-rotate contributions.
	mine := l.at(x.Rank())
	x.CopyPrivate(dst+scc.Addr(8*mine.Off), src, mine.Len)
	return x.allgatherBlocks(dst, l)
}

// allgatherBlocks runs the ring allgather over an arbitrary layout:
// each core starts owning its block inside dst (at its block offset)
// and after p-1 rounds every block is present in every core's dst.
func (x *Ctx) allgatherBlocks(dst scc.Addr, l layout) error {
	p := x.NP()
	me := x.Rank()
	if p == 1 {
		return nil
	}
	right := x.Member(mod(me+1, p))
	left := x.Member(mod(me-1, p))
	for r := 0; r < p-1; r++ {
		sb, rb := l.at(mod(me-r, p)), l.at(mod(me-1-r, p))
		if err := x.ep.Exchange(right, dst+scc.Addr(8*sb.Off), 8*sb.Len,
			left, dst+scc.Addr(8*rb.Off), 8*rb.Len); err != nil {
			return err
		}
	}
	return nil
}

// Alltoall performs a complete exchange: src holds p blocks of nPer
// elements (block q destined for rank q); after the call dst holds p
// blocks of nPer elements (block q received from rank q).
func (x *Ctx) Alltoall(src, dst scc.Addr, nPer int) error {
	return x.collective("Alltoall", nPer, false, func() error {
		return x.alltoallBody(src, layout{nPer: nPer}, dst, layout{nPer: nPer})
	})
}

// AlltoallV performs a complete exchange with per-pair counts:
// sendBlocks[q] describes the slice of src destined for rank q and
// recvBlocks[q] the slice of dst receiving from rank q. Lengths must
// agree pairwise across ranks (sendBlocks[q].Len here ==
// recvBlocks[me].Len there); the simulation deadlock detector flags
// violations.
func (x *Ctx) AlltoallV(src scc.Addr, sendBlocks []Block, dst scc.Addr, recvBlocks []Block) error {
	entry := x.grp
	return x.collective("AlltoallV", 0, false, func() error {
		return x.alltoallBody(src, x.liveBlocks(sendBlocks, entry), dst, x.liveBlocks(recvBlocks, entry))
	}, sendBlocks, recvBlocks)
}

// alltoallBody is the linear pairwise exchange (partner = (round - me)
// mod p), which pairs cores symmetrically in every round and therefore
// stays deadlock-free even with the blocking transport ordered by rank.
func (x *Ctx) alltoallBody(src scc.Addr, send layout, dst scc.Addr, recv layout) error {
	p := x.NP()
	me := x.Rank()
	for r := 0; r < p; r++ {
		partner := mod(r-me, p)
		sb, rb := send.at(partner), recv.at(partner)
		sAddr := src + scc.Addr(8*sb.Off)
		rAddr := dst + scc.Addr(8*rb.Off)
		if partner == me {
			x.CopyPrivate(rAddr, sAddr, min(sb.Len, rb.Len))
			continue
		}
		if sb.Len == 0 && rb.Len == 0 {
			continue
		}
		peer := x.Member(partner)
		if err := x.ep.Exchange(peer, sAddr, 8*sb.Len, peer, rAddr, 8*rb.Len); err != nil {
			return err
		}
	}
	return nil
}

// Scatter distributes block q of the root's src buffer (p blocks of nPer
// elements) to rank q's dst. src is only read on the root.
func (x *Ctx) Scatter(root int, src scc.Addr, nPer int, dst scc.Addr) error {
	return x.collective("Scatter", nPer, false, func() error {
		return x.scatterBody(root, src, layout{nPer: nPer}, dst)
	})
}

// ScatterV distributes variable-sized blocks from the root: rank q
// receives blocks[q].Len elements into dst, taken from blocks[q].Off of
// the root's src.
func (x *Ctx) ScatterV(root int, src scc.Addr, blocks []Block, dst scc.Addr) error {
	entry := x.grp
	return x.collective("ScatterV", 0, false, func() error {
		return x.scatterBody(root, src, x.liveBlocks(blocks, entry), dst)
	}, blocks)
}

// scatterBody is the linear root loop: the root's injection bandwidth
// dominates a scatter anyway. The root is validated per attempt: if it
// died, the re-execution surfaces ErrInvalid on every survivor. A root
// whose dst already is its block of src (the scatter phase of the ring
// Broadcast) moves nothing for itself.
func (x *Ctx) scatterBody(root int, src scc.Addr, l layout, dst scc.Addr) error {
	rootR, err := x.RootRank("Scatter", root)
	if err != nil {
		return err
	}
	if me := x.Rank(); me != rootR {
		if n := l.at(me).Len; n > 0 {
			return x.ep.Recv(root, dst, 8*n)
		}
		return nil
	}
	for q := 0; q < x.NP(); q++ {
		b := l.at(q)
		if at := src + scc.Addr(8*b.Off); q == rootR {
			if dst != at {
				x.CopyPrivate(dst, at, b.Len)
			}
		} else if b.Len > 0 {
			if err := x.ep.Send(x.Member(q), at, 8*b.Len); err != nil {
				return err
			}
		}
	}
	return nil
}

// Gather collects each rank's nPer-element src block into the root's dst
// buffer (p blocks, rank-ordered). dst is only written on the root.
func (x *Ctx) Gather(root int, src scc.Addr, nPer int, dst scc.Addr) error {
	return x.collective("Gather", nPer, false, func() error {
		return x.gatherBody(root, src, layout{nPer: nPer}, dst)
	})
}

// GatherV collects variable-sized blocks to the root: rank q sends
// blocks[q].Len elements from src, landing at blocks[q].Off in the
// root's dst.
func (x *Ctx) GatherV(root int, src scc.Addr, blocks []Block, dst scc.Addr) error {
	entry := x.grp
	return x.collective("GatherV", 0, false, func() error {
		return x.gatherBody(root, src, x.liveBlocks(blocks, entry), dst)
	}, blocks)
}

// gatherBody mirrors scatterBody (in place: the gather phase of the ring
// Reduce).
func (x *Ctx) gatherBody(root int, src scc.Addr, l layout, dst scc.Addr) error {
	rootR, err := x.RootRank("Gather", root)
	if err != nil {
		return err
	}
	if me := x.Rank(); me != rootR {
		if n := l.at(me).Len; n > 0 {
			return x.ep.Send(root, src, 8*n)
		}
		return nil
	}
	for q := 0; q < x.NP(); q++ {
		b := l.at(q)
		if at := dst + scc.Addr(8*b.Off); q == rootR {
			if at != src {
				x.CopyPrivate(at, src, b.Len)
			}
		} else if b.Len > 0 {
			if err := x.ep.Recv(x.Member(q), at, 8*b.Len); err != nil {
				return err
			}
		}
	}
	return nil
}

// Scan computes an inclusive prefix reduction: rank k's dst receives
// op(v_0, ..., v_k) element-wise. Implemented as the linear pipeline
// used by small-communicator MPI implementations: rank k receives the
// prefix from k-1, combines its contribution, and forwards to k+1.
func (x *Ctx) Scan(src, dst scc.Addr, n int, op Op) error {
	return x.collective("Scan", n, false, func() error { return x.scanBody(src, dst, n, op) })
}

func (x *Ctx) scanBody(src, dst scc.Addr, n int, op Op) error {
	p := x.NP()
	me := x.Rank()
	x.CopyPrivate(dst, src, n)
	if p == 1 || n == 0 {
		return nil
	}
	if me > 0 {
		x.ensureScratch(n)
		if err := x.ep.Recv(x.Member(me-1), x.rbufAddr, 8*n); err != nil {
			return err
		}
		x.ReduceInto(dst, x.rbufAddr, src, n, op)
	}
	if me < p-1 {
		return x.ep.Send(x.Member(me+1), dst, 8*n)
	}
	return nil
}
