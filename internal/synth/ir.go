// Package synth searches for collective schedules instead of
// hand-writing them. The deterministic simulator is a cheap, exact
// oracle (two runs of a schedule are bit-identical in virtual time), so
// candidate schedules can be enumerated against the timing model,
// validated symbolically, and only the winners measured for real. The
// approach follows the SCCL line of work ("Synthesizing Optimal
// Collective Algorithms"): a schedule is a per-step list of chunk moves
// between ranks, searched per (collective, communicator, mesh) and then
// compiled onto the existing core.Endpoint transport as an ordinary
// registered algorithm named "synth:<op>:<np>:<bucket>".
package synth

import (
	"fmt"
	"math/bits"
	"slices"
)

// MoveKind says what the receiver does with an incoming chunk.
type MoveKind uint8

const (
	// Copy overwrites the receiver's chunk with the sender's.
	Copy MoveKind = iota
	// Combine reduces the sender's partial into the receiver's chunk.
	Combine
)

func (k MoveKind) String() string {
	if k == Combine {
		return "combine"
	}
	return "copy"
}

// Move is one chunk transfer: rank From sends chunk Chunk to rank To,
// which applies it per Kind. Ranks are schedule ranks (0..NP-1, root
// always 0 for rooted ops); the compiler relabels for other roots.
type Move struct {
	Chunk int      `json:"c"`
	From  int      `json:"f"`
	To    int      `json:"t"`
	Kind  MoveKind `json:"k"`
}

// Schedule is the synthesis IR: the vector is split into Chunks equal
// pieces and Steps[i] lists the moves of step i. All moves in a step
// read pre-step state; the list order within a step is the global total
// order the compiler uses to sequence each rank's actions (see
// compile.go for why that is deadlock-free). NumSteps is a header copy
// of len(Steps), kept explicit so a truncated or hand-edited schedule
// fails validation instead of silently running short.
type Schedule struct {
	Op       string   `json:"op"` // "allreduce" | "broadcast" | "reduce"
	NP       int      `json:"np"`
	Chunks   int      `json:"chunks"`
	NumSteps int      `json:"num_steps"`
	Steps    [][]Move `json:"steps"`
	// Gen records which generator family produced the schedule
	// ("beam", "hd:2", ...) — provenance for the Pareto tables.
	Gen string `json:"gen,omitempty"`
}

// mask is a bitset over ranks: bit q set means rank q's contribution
// is accumulated in the value.
type mask []uint64

func (m mask) set(q int) { m[q/64] |= 1 << uint(q%64) }

func (m mask) pop() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

func (m mask) empty() bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

func (a mask) disjoint(b mask) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return false
		}
	}
	return true
}

// subset reports a ⊆ b.
func (a mask) subset(b mask) bool {
	for i := range a {
		if a[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// state is the symbolic execution state: one flat bitset holding, for
// each (rank, chunk), the w-word contribution mask of that rank's buffer
// for that chunk.
type state struct {
	np, chunks, w int
	bits          []uint64
}

func (s state) mask(r, ch int) mask {
	i := (r*s.chunks + ch) * s.w
	return s.bits[i : i+s.w : i+s.w]
}

// full reports that rank r's chunk ch holds every contribution (no bit
// at or above np is ever set).
func (s state) full(r, ch int) bool { return s.mask(r, ch).pop() == s.np }

func (s state) clone() state {
	s.bits = slices.Clone(s.bits)
	return s
}

// initState builds the pre-schedule state for op: for broadcast every
// chunk of rank 0 (the schedule root) is "full" and everyone else is
// empty; for reduce/allreduce every rank holds exactly its own
// contribution in every chunk.
func initState(op string, np, chunks int) (state, error) {
	s := state{np: np, chunks: chunks, w: (np + 63) / 64}
	s.bits = make([]uint64, np*chunks*s.w)
	switch op {
	case "broadcast":
		for ch := 0; ch < chunks; ch++ {
			for q := 0; q < np; q++ {
				s.mask(0, ch).set(q)
			}
		}
	case "reduce", "allreduce":
		for r := 0; r < np; r++ {
			for ch := 0; ch < chunks; ch++ {
				s.mask(r, ch).set(r)
			}
		}
	default:
		return state{}, fmt.Errorf("synth: unknown op %q", op)
	}
	return s, nil
}

// unfinished is the op's postcondition: for broadcast and allreduce
// every rank ends full in every chunk; for reduce the root (schedule
// rank 0) does, i.e. every core's contribution reaches the root. It
// returns the first (rank, chunk) that is not full, or ok = false when
// the postcondition holds.
func (s state) unfinished(op string) (rank, chunk int, ok bool) {
	ranks := s.np
	if op == "reduce" {
		ranks = 1
	}
	for r := 0; r < ranks; r++ {
		for ch := 0; ch < s.chunks; ch++ {
			if !s.full(r, ch) {
				return r, ch, true
			}
		}
	}
	return 0, 0, false
}

// applyStep symbolically executes one step on st (in place), enforcing
// the per-step well-formedness rules:
//
//   - every move is in range, From != To, and for broadcast is a Copy;
//   - reads use pre-step state: a sender must hold a non-empty mask,
//     and a (rank, chunk) written in the step may be read in the same
//     step only as half of a symmetric single-chunk exchange with the
//     same peer (the one pattern the compiler fuses into one Exchange,
//     so the pre-step value is what actually goes on the wire);
//   - at most one write per (rank, chunk) per step;
//   - Combine requires disjoint contribution masks (no contribution is
//     ever counted twice), Copy requires the receiver's mask to be a
//     subset of the sender's (nothing is discarded).
func applyStep(op string, st state, step []Move) error {
	// Per (rank, chunk): the 1-based index of the move that writes it and
	// of the first move that reads it, and how many moves read it.
	type use struct{ write, read, reads int32 }
	uses := make([]use, st.np*st.chunks)
	for i, mv := range step {
		if mv.Chunk < 0 || mv.Chunk >= st.chunks || mv.From < 0 || mv.From >= st.np || mv.To < 0 || mv.To >= st.np {
			return fmt.Errorf("synth: move %+v out of range (np=%d chunks=%d)", mv, st.np, st.chunks)
		}
		if mv.From == mv.To {
			return fmt.Errorf("synth: self-move %+v", mv)
		}
		if op == "broadcast" && mv.Kind != Copy {
			return fmt.Errorf("synth: broadcast schedule contains %s move %+v", mv.Kind, mv)
		}
		src, dst := st.mask(mv.From, mv.Chunk), st.mask(mv.To, mv.Chunk)
		if src.empty() {
			return fmt.Errorf("synth: move %+v sends an empty chunk", mv)
		}
		w := &uses[mv.To*st.chunks+mv.Chunk]
		if w.write != 0 {
			return fmt.Errorf("synth: two writes to rank %d chunk %d in one step (%+v, %+v)", mv.To, mv.Chunk, step[w.write-1], mv)
		}
		w.write = int32(i + 1)
		rd := &uses[mv.From*st.chunks+mv.Chunk]
		if rd.reads == 0 {
			rd.read = int32(i + 1)
		}
		rd.reads++
		switch mv.Kind {
		case Combine:
			if !src.disjoint(dst) {
				return fmt.Errorf("synth: combine %+v double-counts a contribution", mv)
			}
		case Copy:
			if !dst.subset(src) {
				return fmt.Errorf("synth: copy %+v discards receiver contributions", mv)
			}
		default:
			return fmt.Errorf("synth: unknown move kind in %+v", mv)
		}
	}
	// Read-write overlap: a chunk both written at and sent from the same
	// rank in one step must be the symmetric exchange.
	for _, mv := range step {
		u := uses[mv.To*st.chunks+mv.Chunk]
		if u.reads > 1 || u.reads == 1 && step[u.read-1].To != mv.From {
			return fmt.Errorf("synth: rank %d chunk %d is written (%+v) and read (%+v) in one step without a symmetric exchange",
				mv.To, mv.Chunk, mv, step[u.read-1])
		}
	}
	// Commit: every move reads pre-step masks, so build the written masks
	// from a snapshot before storing any of them.
	next := make(mask, len(step)*st.w)
	for i, mv := range step {
		m := next[i*st.w : (i+1)*st.w]
		copy(m, st.mask(mv.From, mv.Chunk))
		if mv.Kind == Combine {
			for j, w := range st.mask(mv.To, mv.Chunk) {
				m[j] |= w
			}
		}
	}
	for i, mv := range step {
		copy(st.mask(mv.To, mv.Chunk), next[i*st.w:(i+1)*st.w])
	}
	return nil
}

// Validate checks the whole schedule symbolically: header consistency,
// per-step well-formedness (applyStep), and the op's postcondition
// (unfinished).
func (s *Schedule) Validate() error {
	if s.NP < 1 {
		return fmt.Errorf("synth: schedule np=%d", s.NP)
	}
	if s.Chunks < 1 {
		return fmt.Errorf("synth: schedule chunks=%d", s.Chunks)
	}
	if s.NumSteps != len(s.Steps) {
		return fmt.Errorf("synth: header says %d steps, body has %d", s.NumSteps, len(s.Steps))
	}
	st, err := initState(s.Op, s.NP, s.Chunks)
	if err != nil {
		return err
	}
	for i, step := range s.Steps {
		if len(step) == 0 {
			return fmt.Errorf("synth: step %d is empty", i)
		}
		if err := applyStep(s.Op, st, step); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	if r, ch, ok := st.unfinished(s.Op); ok {
		return fmt.Errorf("synth: rank %d chunk %d ends with %d/%d contributions", r, ch, st.mask(r, ch).pop(), s.NP)
	}
	return nil
}

// TotalMoves counts the moves across all steps (the bandwidth proxy
// reported next to step count in the Pareto tables).
func (s *Schedule) TotalMoves() int {
	n := 0
	for _, st := range s.Steps {
		n += len(st)
	}
	return n
}

// chunkSpan returns the element offset and length of chunk ch when an
// n-element vector is split into `chunks` near-equal pieces (the first
// n%chunks chunks get the extra element). Chunks may be empty when
// n < chunks; the compiler skips zero-length transfers.
func chunkSpan(n, chunks, ch int) (off, length int) {
	base := n / chunks
	rem := n % chunks
	off = ch*base + min(ch, rem)
	length = base
	if ch < rem {
		length++
	}
	return off, length
}
