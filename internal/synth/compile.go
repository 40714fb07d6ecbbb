package synth

import (
	"fmt"

	"scc/internal/core"
	"scc/internal/scc"
)

// The compiler lowers a validated Schedule onto core.Endpoint, yielding
// an ordinary registered algorithm: selectors, the bench harness,
// faultbench and metrics treat it exactly like the hand-written ones.
//
// Execution model. Within a step, the IR's move list is the global
// total order. Each rank extracts its own moves, fuses every
// send/receive pair it has with the same peer into one Exchange call
// with that peer on both legs (both ends derive the same pairing from
// the same list, so the fusions match), and runs the resulting actions
// ordered by the position of their earliest constituent move. That is deadlock-free
// for rendezvous semantics: consider the unfinished action with the
// globally smallest position; its partner rank cannot be blocked on an
// earlier action (that action would be smaller), cannot have passed it
// (the action would be finished), so it is blocked on the very same
// action — which therefore completes. Fusing matters for correctness,
// not just overlap: in a symmetric exchange each side sends the
// pre-step chunk while receiving into staging, so the value on the
// wire is the pre-step one the IR's validator reasoned about; combines
// are applied only after the exchange returns.

// Compile validates s and wraps it as a named algorithm. The returned
// value implements the per-op interface matching s.Op; Applicable
// requires an exactly matching communicator size on a single chip.
func Compile(s *Schedule, name string) (core.Algorithm, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return compile(s, name), nil
}

// compile wraps a schedule that has passed Validate, which rejects every
// op but the three below.
func compile(s *Schedule, name string) core.Algorithm {
	b := base{s: s, name: name}
	switch s.Op {
	case "allreduce":
		return allreduceAlg{b}
	case "broadcast":
		return broadcastAlg{b}
	}
	return reduceAlg{b}
}

type base struct {
	s    *Schedule
	name string
}

func (b base) Name() string { return b.name }
func (b base) Describe() string {
	return fmt.Sprintf("synthesized %s schedule (gen %s: %d steps, %d chunks, %d moves) for np=%d",
		b.s.Op, b.s.Gen, b.s.NumSteps, b.s.Chunks, b.s.TotalMoves(), b.s.NP)
}

// Applicable: the schedule is specialized to one communicator size and
// knows nothing about the inter-chip fabric.
func (b base) Applicable(x *core.Ctx, n int) bool {
	return x.NP() == b.s.NP && !x.MultiChip()
}

// action is one transport call of a rank within a step: a send, a
// receive, or a fused symmetric exchange with the same peer.
type action struct {
	pos        int // earliest constituent move's index in the step
	peer       int // schedule rank of the other side
	send, recv *Move
}

// Schedule ranks are relabeled through an involution that swaps
// schedule rank 0 with the communicator rank of the requested root, so
// rooted schedules (synthesized for root 0) serve any root; for
// allreduce the identity is used. sched2comm == comm2sched.
func rootSwap(rootR int) func(int) int {
	return func(r int) int {
		switch r {
		case 0:
			return rootR
		case rootR:
			return 0
		}
		return r
	}
}

// run executes the schedule. work is the rank's working vector (chunk
// reads and writes), stage the receive staging for combines (may be 0
// for broadcast, which only copies), relabel the rank involution, and
// op the reduction operator for Combine moves.
func (b base) run(x *core.Ctx, relabel func(int) int, work, stage scc.Addr, n int, op core.Op) error {
	ep := x.Endpoint()
	mySched := relabel(x.Rank())
	s := b.s
	for _, step := range s.Steps {
		// Gather this rank's moves, queueing per peer for fusion.
		var order []int // peers in first-occurrence order
		sendQ := map[int][]action{}
		recvQ := map[int][]action{}
		touch := func(p int) {
			if _, seen := sendQ[p]; !seen {
				if _, seen := recvQ[p]; !seen {
					order = append(order, p)
				}
			}
		}
		for i := range step {
			mv := &step[i]
			switch mySched {
			case mv.From:
				touch(mv.To)
				sendQ[mv.To] = append(sendQ[mv.To], action{pos: i, peer: mv.To, send: mv})
			case mv.To:
				touch(mv.From)
				recvQ[mv.From] = append(recvQ[mv.From], action{pos: i, peer: mv.From, recv: mv})
			}
		}
		// Fuse per-peer send/receive pairs in order; both ends compute
		// the same pairing from the same global list.
		var acts []action
		for _, p := range order {
			ss, rs := sendQ[p], recvQ[p]
			k := len(ss)
			if len(rs) < k {
				k = len(rs)
			}
			for i := 0; i < k; i++ {
				a := action{pos: ss[i].pos, peer: p, send: ss[i].send, recv: rs[i].recv}
				if rs[i].pos < a.pos {
					a.pos = rs[i].pos
				}
				acts = append(acts, a)
			}
			acts = append(acts, ss[k:]...)
			acts = append(acts, rs[k:]...)
		}
		// Order by earliest constituent (positions are unique).
		for i := 1; i < len(acts); i++ {
			for j := i; j > 0 && acts[j].pos < acts[j-1].pos; j-- {
				acts[j], acts[j-1] = acts[j-1], acts[j]
			}
		}
		for _, a := range acts {
			if err := b.runAction(x, ep, relabel, a, work, stage, n, op); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b base) runAction(x *core.Ctx, ep core.Endpoint, relabel func(int) int, a action, work, stage scc.Addr, n int, op core.Op) error {
	span := func(mv *Move) (scc.Addr, int, int) {
		off, l := chunkSpan(n, b.s.Chunks, mv.Chunk)
		return scc.Addr(8 * off), l, off
	}
	peerCore := x.Member(relabel(a.peer))
	var sOff, rOff scc.Addr
	var sLen, rLen int
	if a.send != nil {
		sOff, sLen, _ = span(a.send)
	}
	if a.recv != nil {
		rOff, rLen, _ = span(a.recv)
	}
	// Zero-length chunks (n < Chunks) drop their legs; chunk lengths
	// are pure functions of the chunk index, so both ends agree.
	switch {
	case a.send != nil && a.recv != nil && sLen > 0 && rLen > 0:
		recvInto := work + rOff
		if a.recv.Kind == Combine {
			recvInto = stage + rOff
		}
		if err := ep.Exchange(peerCore, work+sOff, 8*sLen, peerCore, recvInto, 8*rLen); err != nil {
			return err
		}
		if a.recv.Kind == Combine {
			x.ReduceInto(work+rOff, work+rOff, stage+rOff, rLen, op)
		}
		return nil
	case a.send != nil && sLen > 0:
		return ep.Send(peerCore, work+sOff, 8*sLen)
	case a.recv != nil && rLen > 0:
		if a.recv.Kind == Combine {
			if err := ep.Recv(peerCore, stage+rOff, 8*rLen); err != nil {
				return err
			}
			x.ReduceInto(work+rOff, work+rOff, stage+rOff, rLen, op)
			return nil
		}
		return ep.Recv(peerCore, work+rOff, 8*rLen)
	}
	return nil
}

type allreduceAlg struct{ base }

func (a allreduceAlg) Allreduce(x *core.Ctx, src, dst scc.Addr, n int, op core.Op) error {
	_, stage := x.ScratchPair(n)
	x.CopyPrivate(dst, src, n)
	ident := func(r int) int { return r }
	return a.run(x, ident, dst, stage, n, op)
}

type broadcastAlg struct{ base }

func (a broadcastAlg) Broadcast(x *core.Ctx, root int, addr scc.Addr, n int) error {
	rootR, err := x.RootRank("Broadcast", root)
	if err != nil {
		return err
	}
	return a.run(x, rootSwap(rootR), addr, 0, n, nil)
}

type reduceAlg struct{ base }

func (a reduceAlg) Reduce(x *core.Ctx, root int, src, dst scc.Addr, n int, op core.Op) error {
	rootR, err := x.RootRank("Reduce", root)
	if err != nil {
		return err
	}
	work, stage := x.ScratchPair(n)
	if x.Rank() == rootR {
		work = dst
	}
	x.CopyPrivate(work, src, n)
	return a.run(x, rootSwap(rootR), work, stage, n, op)
}
