package rcce

import (
	"iter"
	"math/bits"

	"scc/internal/scc"
	"scc/internal/simtime"
)

// Binomial is a rank's place in the binomial tree over p ranks rooted at
// root, which every tree collective walks. A rank is v = (rank - root)
// mod p relative to the root; its parent is v &^ lowbit(v), its children
// v | m below p for every power of two m < lowbit(v) (m < p at the root).
type Binomial struct {
	Parent          int // the parent's rank, -1 at the root
	root, p, v, low int
}

// NewBinomial places rank in the binomial tree over p ranks rooted at
// root.
func NewBinomial(root, rank, p int) Binomial {
	v := ((rank-root)%p + p) % p
	b := Binomial{Parent: -1, root: root, p: p, v: v, low: v & -v}
	if v == 0 {
		b.low = 1 << bits.Len(uint(p-1))
	} else {
		b.Parent = (root + v&^b.low) % p
	}
	return b
}

// Children yields the children's ranks, smallest subtree first when
// ascending (the gather order) and largest first otherwise (the release
// order).
func (b Binomial) Children(ascending bool) iter.Seq[int] {
	return func(yield func(int) bool) {
		for i := 1; i < b.low; i <<= 1 {
			m := b.low / (2 * i)
			if ascending {
				m = i
			}
			if c := b.v | m; c < b.p && !yield((b.root+c)%b.p) {
				return
			}
		}
	}
}

// BarrierTree synchronizes all UEs along the binomial tree from UE 0: a
// UE waits for its children's arrivals, smallest subtree first, reports
// to its parent and waits for its release, then releases its children,
// largest subtree first. Its flags sit on the writer lines BroadcastTree
// uses, and its generation counter is its own. O(log p) waits per core.
func (u *UE) BarrierTree() {
	u.core.OverheadCycles(u.core.Chip().Model.OverheadBlockingCall)
	u.treeGen = max(1, u.treeGen+1) // 0 is never a generation
	gen, me, t := u.treeGen, u.ID(), NewBinomial(0, u.ID(), u.NumUEs())
	for child := range t.Children(true) {
		u.core.WaitFlag(u.comm.FlagAddr(me, child, FlagTreeArrive), gen)
	}
	if parent := t.Parent; parent >= 0 {
		u.core.SetFlag(u.comm.FlagAddr(parent, me, FlagTreeArrive), gen)
		u.core.WaitFlag(u.comm.FlagAddr(me, parent, FlagTreeRelease), gen)
	}
	for child := range t.Children(false) {
		u.core.SetFlag(u.comm.FlagAddr(child, me, FlagTreeRelease), gen)
	}
	u.core.Note(simtime.Note1("tree barrier gen %d passed", int64(gen)))
}

// BroadcastTree distributes nBytes at addr from root along the binomial
// tree rooted there, a data-region chunk at a time. A parent stages each
// chunk once in its own data region and releases its children, largest
// subtree first; they read it in parallel, ack, and stage it for their
// own subtrees. The parent takes every ack before it stages again or
// returns. Both flags are cleared after reading, like FlagSent and
// FlagReady. Each chunk's receive and each release cost one message of
// the costs row: Post before it, Wait once it is acked.
func (u *UE) BroadcastTree(costs NBCosts, root int, addr scc.Addr, nBytes int) {
	me, t, chunk := u.ID(), NewBinomial(root, u.ID(), u.NumUEs()), u.comm.DataBytes()
	for off := 0; ; off += chunk {
		n := min(chunk, nBytes-off)
		if parent := t.Parent; parent >= 0 {
			rel := u.comm.FlagAddr(me, parent, FlagBcastRelease)
			u.core.OverheadCycles(costs.Post)
			u.chargePartialLine(RowRCCE, n)
			u.core.WaitFlag(rel, 1)
			u.core.SetFlag(rel, 0)
			u.Get(u.comm.DataBase(parent), addr+scc.Addr(off), n)
			u.core.SetFlag(u.comm.FlagAddr(parent, me, FlagBcastAck), 1)
			u.core.Note(simtime.Note3("bcast<-%02d: %d/%d B consumed", int64(parent), int64(off+n), int64(nBytes)))
			u.core.OverheadCycles(costs.Wait)
		}
		if t.low > 1 && t.v|1 < t.p { // v|1 is the smallest child
			u.Put(addr+scc.Addr(off), u.comm.DataBase(me), n)
		}
		for child := range t.Children(false) {
			u.core.OverheadCycles(costs.Post)
			u.chargePartialLine(RowRCCE, n)
			u.core.SetFlag(u.comm.FlagAddr(child, me, FlagBcastRelease), 1)
		}
		for child := range t.Children(false) {
			u.core.Note(simtime.Note3("bcast->%02d: %d/%d B released", int64(child), int64(off+n), int64(nBytes)))
			ack := u.comm.FlagAddr(me, child, FlagBcastAck)
			u.core.WaitFlag(ack, 1)
			u.core.SetFlag(ack, 0)
			u.core.OverheadCycles(costs.Wait)
		}
		if off+chunk >= nBytes {
			return
		}
	}
}
