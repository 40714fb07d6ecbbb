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

// mask is a bitset over ranks: bit r set means rank r's contribution is
// accumulated in the value. np <= 64 uses one word; larger communicators
// use the spill slice.
type mask struct {
	lo uint64
	hi []uint64 // nil for np <= 64
}

func newMask(np int) mask {
	if np <= 64 {
		return mask{}
	}
	return mask{hi: make([]uint64, (np+63)/64-1)}
}

func (m mask) clone() mask {
	c := m
	if m.hi != nil {
		c.hi = append([]uint64(nil), m.hi...)
	}
	return c
}

func (m *mask) set(r int) {
	if r < 64 {
		m.lo |= 1 << uint(r)
	} else {
		m.hi[r/64-1] |= 1 << uint(r%64)
	}
}

func (m mask) has(r int) bool {
	if r < 64 {
		return m.lo&(1<<uint(r)) != 0
	}
	return m.hi[r/64-1]&(1<<uint(r%64)) != 0
}

func (m mask) pop() int {
	n := bits.OnesCount64(m.lo)
	for _, w := range m.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

func (m mask) empty() bool {
	if m.lo != 0 {
		return false
	}
	for _, w := range m.hi {
		if w != 0 {
			return false
		}
	}
	return true
}

func (a mask) disjoint(b mask) bool {
	if a.lo&b.lo != 0 {
		return false
	}
	for i := range a.hi {
		if a.hi[i]&b.hi[i] != 0 {
			return false
		}
	}
	return true
}

// subset reports a ⊆ b.
func (a mask) subset(b mask) bool {
	if a.lo&^b.lo != 0 {
		return false
	}
	for i := range a.hi {
		if a.hi[i]&^b.hi[i] != 0 {
			return false
		}
	}
	return true
}

func (a *mask) union(b mask) {
	a.lo |= b.lo
	for i := range a.hi {
		a.hi[i] |= b.hi[i]
	}
}

func (a mask) equal(b mask) bool {
	if a.lo != b.lo {
		return false
	}
	for i := range a.hi {
		if a.hi[i] != b.hi[i] {
			return false
		}
	}
	return true
}

func fullMask(np int) mask {
	m := newMask(np)
	for r := 0; r < np; r++ {
		m.set(r)
	}
	return m
}

// state is the symbolic execution state: st[rank][chunk] is the
// contribution mask held in that rank's buffer for that chunk.
type state [][]mask

func (s state) clone() state {
	c := make(state, len(s))
	for r := range s {
		c[r] = make([]mask, len(s[r]))
		for ch := range s[r] {
			c[r][ch] = s[r][ch].clone()
		}
	}
	return c
}

// initState builds the pre-schedule state for op: for broadcast every
// chunk of rank 0 (the schedule root) is "full" and everyone else is
// empty; for reduce/allreduce every rank holds exactly its own
// contribution in every chunk.
func initState(op string, np, chunks int) (state, error) {
	s := make(state, np)
	full := fullMask(np)
	for r := range s {
		s[r] = make([]mask, chunks)
		for ch := range s[r] {
			switch op {
			case "broadcast":
				if r == 0 {
					s[r][ch] = full.clone()
				} else {
					s[r][ch] = newMask(np)
				}
			case "reduce", "allreduce":
				m := newMask(np)
				m.set(r)
				s[r][ch] = m
			default:
				return nil, fmt.Errorf("synth: unknown op %q", op)
			}
		}
	}
	return s, nil
}

// applyStep symbolically executes one step on st (in place), enforcing
// the per-step well-formedness rules:
//
//   - every move is in range, From != To, and for broadcast is a Copy;
//   - reads use pre-step state: a sender must hold a non-empty mask,
//     and a (rank, chunk) written in the step may be read in the same
//     step only as half of a symmetric single-chunk exchange with the
//     same peer (the one pattern the compiler fuses into ExchangePair,
//     so the pre-step value is what actually goes on the wire);
//   - at most one write per (rank, chunk) per step;
//   - Combine requires disjoint contribution masks (no contribution is
//     ever counted twice), Copy requires the receiver's mask to be a
//     subset of the sender's (nothing is discarded).
func applyStep(op string, np, chunks int, st state, step []Move) error {
	type wkey struct{ r, c int }
	writes := map[wkey]Move{}
	reads := map[wkey][]Move{}
	for _, mv := range step {
		if mv.Chunk < 0 || mv.Chunk >= chunks || mv.From < 0 || mv.From >= np || mv.To < 0 || mv.To >= np {
			return fmt.Errorf("synth: move %+v out of range (np=%d chunks=%d)", mv, np, chunks)
		}
		if mv.From == mv.To {
			return fmt.Errorf("synth: self-move %+v", mv)
		}
		if op == "broadcast" && mv.Kind != Copy {
			return fmt.Errorf("synth: broadcast schedule contains %s move %+v", mv.Kind, mv)
		}
		if st[mv.From][mv.Chunk].empty() {
			return fmt.Errorf("synth: move %+v sends an empty chunk", mv)
		}
		wk := wkey{mv.To, mv.Chunk}
		if prev, dup := writes[wk]; dup {
			return fmt.Errorf("synth: two writes to rank %d chunk %d in one step (%+v, %+v)", mv.To, mv.Chunk, prev, mv)
		}
		writes[wk] = mv
		reads[wkey{mv.From, mv.Chunk}] = append(reads[wkey{mv.From, mv.Chunk}], mv)
		switch mv.Kind {
		case Combine:
			if !st[mv.From][mv.Chunk].disjoint(st[mv.To][mv.Chunk]) {
				return fmt.Errorf("synth: combine %+v double-counts a contribution", mv)
			}
		case Copy:
			if !st[mv.To][mv.Chunk].subset(st[mv.From][mv.Chunk]) {
				return fmt.Errorf("synth: copy %+v discards receiver contributions", mv)
			}
		default:
			return fmt.Errorf("synth: unknown move kind in %+v", mv)
		}
	}
	// Read-write overlap: a chunk both written at and sent from the same
	// rank in one step must be the symmetric exchange.
	for wk, w := range writes {
		for _, rmv := range reads[wk] {
			if len(reads[wk]) > 1 || rmv.To != w.From {
				return fmt.Errorf("synth: rank %d chunk %d is written (%+v) and read (%+v) in one step without a symmetric exchange",
					wk.r, wk.c, w, rmv)
			}
		}
	}
	// Commit: all reads used pre-step masks (captured per move above via
	// st), so apply writes from a snapshot of the senders' masks.
	type upd struct {
		wk wkey
		m  mask
	}
	var ups []upd
	for wk, mv := range writes {
		src := st[mv.From][mv.Chunk].clone()
		if mv.Kind == Combine {
			src.union(st[wk.r][wk.c])
		}
		ups = append(ups, upd{wk, src})
	}
	for _, u := range ups {
		st[u.wk.r][u.wk.c] = u.m
	}
	return nil
}

// Validate checks the whole schedule symbolically: header consistency,
// per-step well-formedness (applyStep), and the op's postcondition —
// for broadcast and allreduce every rank ends full in every chunk; for
// reduce the root (schedule rank 0) does, i.e. every core's
// contribution reaches the root.
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
		if err := applyStep(s.Op, s.NP, s.Chunks, st, step); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	full := fullMask(s.NP)
	check := func(r int) error {
		for ch := 0; ch < s.Chunks; ch++ {
			if !st[r][ch].equal(full) {
				return fmt.Errorf("synth: rank %d chunk %d ends with %d/%d contributions", r, ch, st[r][ch].pop(), s.NP)
			}
		}
		return nil
	}
	switch s.Op {
	case "reduce":
		return check(0)
	case "broadcast", "allreduce":
		for r := 0; r < s.NP; r++ {
			if err := check(r); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("synth: unknown op %q", s.Op)
	}
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
