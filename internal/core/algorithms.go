package core

import "scc/internal/scc"

// The built-in algorithm units. Each is a stateless named wrapper over
// the Ctx helpers (ring rounds, binomial trees, the MPB-direct ring,
// the naive linear loops); per-call state stays in the Ctx scratch
// buffers exactly as before the registry existed, so registering an
// algorithm costs nothing at collective-call time.

func init() {
	RegisterAlgorithm(ringAlg{})
	RegisterAlgorithm(treeAlg{})
	RegisterAlgorithm(recdoubleAlg{})
	RegisterAlgorithm(mpbAlg{})
	RegisterAlgorithm(linearAlg{})
	RegisterAlgorithm(hierAlg{})
}

// ringAlg is the paper's long-vector workhorse (Sec. IV): the
// bucket/ring ReduceScatter+Allgather structure of Barnett et al.,
// over the active block partitioning.
type ringAlg struct{}

func (ringAlg) Name() string { return "ring" }
func (ringAlg) Describe() string {
	return "bucket/ring ReduceScatter+Allgather over the block partition (Sec. IV long-vector path)"
}
func (ringAlg) Applicable(x *Ctx, n int) bool { return true }

func (ringAlg) Allreduce(x *Ctx, src, dst scc.Addr, n int, op Op) error {
	p := x.NP()
	me := x.Rank()
	blocks := x.partitionFor(n, p, x.cfg.Balanced)
	// Reduce-scatter phase, with my block landing directly in dst.
	x.ensureScratch(maxBlockLen(blocks))
	if _, err := x.ReduceScatter(src, dst+scc.Addr(8*blocks[me].Off), n, op); err != nil {
		return err
	}
	// Allgather phase over the same partition.
	return x.allgatherBlocks(dst, layout{blocks: blocks})
}

func (ringAlg) Broadcast(x *Ctx, root int, addr scc.Addr, n int) error {
	blocks := x.partitionFor(n, x.NP(), x.cfg.Balanced)
	// Scatter phase: the root ships block q to rank q, in place.
	if err := x.scatterBody(root, addr, layout{blocks: blocks}, addr+scc.Addr(8*blocks[x.Rank()].Off)); err != nil {
		return err
	}
	// Allgather phase over the same partition reassembles the vector
	// everywhere.
	return x.allgatherBlocks(addr, layout{blocks: blocks})
}

func (ringAlg) Reduce(x *Ctx, root int, src, dst scc.Addr, n int, op Op) error {
	rootR, err := x.RootRank("Reduce", root)
	if err != nil {
		return err
	}
	me := x.Rank()
	blocks := x.partitionFor(n, x.NP(), x.cfg.Balanced)
	blockDst := dst + scc.Addr(8*blocks[me].Off) // the root reduces its block into place
	if me != rootR {
		x.ensureScratch(maxBlockLen(blocks))
		blockDst = x.curAddr // reduced block staged in scratch
	}
	if _, err := x.ReduceScatter(src, blockDst, n, op); err != nil {
		return err
	}
	// Gather phase: everyone ships its block to the root.
	return x.gatherBody(root, blockDst, layout{blocks: blocks}, dst)
}

// treeAlg is the short-vector variant suite: binomial trees finish in
// ceil(log2 p) levels instead of the ring's p-1 handshake rounds
// (RCCE_comm's size-selected variants, refs [8], [9]).
type treeAlg struct{}

func (treeAlg) Name() string { return "tree" }
func (treeAlg) Describe() string {
	return "binomial tree (Reduce/Broadcast; Allreduce = Reduce then Broadcast), log-depth short-vector variant"
}
func (treeAlg) Applicable(x *Ctx, n int) bool { return true }

func (treeAlg) Allreduce(x *Ctx, src, dst scc.Addr, n int, op Op) error {
	// Tree Reduce to the lowest member followed by tree Broadcast
	// (RCCE_comm's composition; 2*log2(p) levels beat 2*(p-1) ring
	// rounds for tiny vectors).
	if err := x.reduceTree(x.Member(0), src, dst, n, op); err != nil {
		return err
	}
	return x.broadcastTree(x.Member(0), dst, n)
}

func (treeAlg) Broadcast(x *Ctx, root int, addr scc.Addr, n int) error {
	return x.broadcastTree(root, addr, n)
}

func (treeAlg) Reduce(x *Ctx, root int, src, dst scc.Addr, n int, op Op) error {
	return x.reduceTree(root, src, dst, n, op)
}

// recdoubleAlg is log-depth Allreduce moving the full vector each level
// (see recdouble.go for the fold handling of non-power-of-two p).
//
// The tradeoff against the ring (Sec. IV's choice for long vectors):
// recursive doubling moves the FULL vector log2(p) times per core, the
// ring moves it ~2x total in p-sized pieces - so doubling wins on
// latency-dominated short vectors and loses on copy-dominated long
// ones. BenchmarkRingVsRecursiveDoubling locates the crossover.
type recdoubleAlg struct{}

func (recdoubleAlg) Name() string { return "recdouble" }
func (recdoubleAlg) Describe() string {
	return "recursive-doubling Allreduce: ceil(log2 p) full-vector exchange+reduce steps"
}
func (recdoubleAlg) Applicable(x *Ctx, n int) bool { return true }

func (recdoubleAlg) Allreduce(x *Ctx, src, dst scc.Addr, n int, op Op) error {
	return x.allreduceRecDouble(src, dst, n, op)
}

// mpbAlg is the hardware-specific Allreduce of Sec. IV-D: the ring
// operating directly on the MPBs with double buffering. Full-chip,
// fault-free only (the hardened protocol does not cover the MPB-direct
// handshake); oversized vectors fall back internally to the staged
// ring, mirroring the pre-registry behavior.
type mpbAlg struct{}

func (mpbAlg) Name() string { return "mpb" }
func (mpbAlg) Describe() string {
	return "MPB-resident double-buffered ring Allreduce (Sec. IV-D, full chip only)"
}
func (mpbAlg) Applicable(x *Ctx, n int) bool {
	return x.grp == nil && x.cfg.Recovery == nil
}

func (mpbAlg) Allreduce(x *Ctx, src, dst scc.Addr, n int, op Op) error {
	return x.allreduceMPB(src, dst, n, op)
}

// linearAlg is the naive serial-root baseline (the RCCE native
// collectives of Sec. III that "do not scale well"): every transfer
// moves the full vector through the root. Registered so the tuner and
// the equivalence suite exercise a known-bad reference point.
type linearAlg struct{}

func (linearAlg) Name() string { return "linear" }
func (linearAlg) Describe() string {
	return "serial root loop moving full vectors (RCCE-native baseline, Sec. III)"
}
func (linearAlg) Applicable(x *Ctx, n int) bool { return true }

func (linearAlg) Broadcast(x *Ctx, root int, addr scc.Addr, n int) error {
	rootR, err := x.RootRank("Broadcast", root)
	if err != nil {
		return err
	}
	p := x.NP()
	me := x.Rank()
	if n == 0 {
		return nil
	}
	if me == rootR {
		for q := 0; q < p; q++ {
			if q == rootR {
				continue
			}
			if err := x.ep.Send(x.Member(q), addr, 8*n); err != nil {
				return err
			}
		}
		return nil
	}
	return x.ep.Recv(root, addr, 8*n)
}

func (linearAlg) Reduce(x *Ctx, root int, src, dst scc.Addr, n int, op Op) error {
	rootR, err := x.RootRank("Reduce", root)
	if err != nil {
		return err
	}
	p := x.NP()
	me := x.Rank()
	if me != rootR {
		if n == 0 {
			return nil
		}
		return x.ep.Send(root, src, 8*n)
	}
	x.CopyPrivate(dst, src, n)
	if n == 0 {
		return nil
	}
	x.ensureScratch(n)
	for q := 0; q < p; q++ {
		if q == rootR {
			continue
		}
		if err := x.ep.Recv(x.Member(q), x.rbufAddr, 8*n); err != nil {
			return err
		}
		x.ReduceInto(dst, dst, x.rbufAddr, n, op)
	}
	return nil
}

func (a linearAlg) Allreduce(x *Ctx, src, dst scc.Addr, n int, op Op) error {
	root := x.Member(0)
	if err := a.Reduce(x, root, src, dst, n, op); err != nil {
		return err
	}
	return a.Broadcast(x, root, dst, n)
}
