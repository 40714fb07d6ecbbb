package synth

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"scc/internal/simtime"
	"scc/internal/timing"
)

// The enumerator. Schedules come from three sources, all mesh-aware:
//
//   - greedy rollouts of a single move-generator flavor — "near"
//     matches senders to Manhattan-nearest partners (MPB-direct pairs
//     first: distance 0 is the other core on the same tile), "xy"
//     prefers dimension-ordered partners (same tile, then same mesh
//     row, then same column) so traffic follows the XY routes the mesh
//     actually uses — at fanout 1 or 2 per sender;
//   - a beam search that mixes those flavors step by step (a schedule
//     may open with tile-local exchanges and switch to row-major
//     fanout), pruned by a timing-model lower bound on the remaining
//     cost;
//   - the halving-doubling template family ("hd:<chunks>"), the
//     chunked Rabenseifner structure for power-of-two communicators
//     that moves a fraction ~2/C of what recursive doubling moves.
//
// Every candidate is symbolically validated before it is returned;
// Enumerate never emits a schedule that Validate rejects.

// Candidate pairs a valid schedule with its model-cost estimate at the
// vector size the enumeration was asked about.
type Candidate struct {
	Sched *Schedule
	Cost  simtime.Duration
}

// The search's fixed bounds. They are constants, not options, because
// a committed recipe names a generator and nothing else: "beam" must
// mean the same width on every rebuild.
const (
	// beamWidth is the beam width of the flavor-mixing search.
	beamWidth = 4
	// maxChunkPow caps the halving-doubling chunk count at 2^maxChunkPow
	// (4 chunks), to keep schedules small.
	maxChunkPow = 2
)

// Options bounds the search.
type Options struct {
	// MaxCands is how many candidates Enumerate returns (default 4).
	MaxCands int
}

// flavor is one move-generator configuration.
type flavor struct {
	gen string // "near" | "xy"
	fan int    // receivers served per sender (1 or 2)
}

func (f flavor) label() string { return fmt.Sprintf("%s:f%d", f.gen, f.fan) }

// flavorsFor lists the generator flavors legal for an op. Reduce is
// fanout-1 only: the IR allows a single write per (rank, chunk) per
// step, so a convergecast absorber takes one partial per step.
func flavorsFor(op string) []flavor {
	if op == "reduce" {
		return []flavor{{"near", 1}, {"xy", 1}}
	}
	return []flavor{{"near", 1}, {"near", 2}, {"xy", 1}, {"xy", 2}}
}

// checkCell rejects a cell no generator can serve.
func checkCell(model *timing.Model, op string, np, n int) error {
	if np < 2 {
		return fmt.Errorf("synth: np=%d (need at least 2)", np)
	}
	if np > model.NumCores() {
		return fmt.Errorf("synth: np=%d exceeds the %d-core mesh", np, model.NumCores())
	}
	if n < 1 {
		return fmt.Errorf("synth: n=%d", n)
	}
	switch op {
	case "allreduce", "broadcast", "reduce":
		return nil
	}
	return fmt.Errorf("synth: unknown op %q", op)
}

// generators lists, in candidate order, the labels of the generators
// Enumerate runs for op: the greedy rollout of every flavor, the
// flavor-mixing beam, and for allreduce the halving-doubling template
// at each chunk count.
func generators(op string) []string {
	var gens []string
	for _, f := range flavorsFor(op) {
		gens = append(gens, f.label())
	}
	gens = append(gens, "beam")
	if op == "allreduce" {
		for j := 1; j <= maxChunkPow; j++ {
			gens = append(gens, "hd:"+strconv.Itoa(1<<uint(j)))
		}
	}
	return gens
}

// generate runs the generator labelled gen on the coster's np ranks at
// vector size n and returns its schedule with the header filled in and
// validated, or nil when the generator does not apply (halving-doubling
// on a communicator that is not a power of two). Every generator is
// deterministic, so a label, a cell and a mesh rebuild the same moves —
// which is what lets the committed table store recipes (table.go). The
// label a schedule carries can differ from gen: a beam whose best path
// never mixed flavors is that flavor's greedy rollout and says so.
func generate(c *coster, op string, n int, gen string) (*Schedule, error) {
	var s *Schedule
	var err error
	switch {
	case gen == "beam":
		s, err = beamSearch(c, op, n, flavorsFor(op), beamWidth)
	case op == "allreduce" && strings.HasPrefix(gen, "hd:"):
		chunks, err := strconv.Atoi(strings.TrimPrefix(gen, "hd:"))
		if err != nil {
			return nil, fmt.Errorf("synth: generator %q: %w", gen, err)
		}
		s = halvingDoubling(c.np, chunks)
	default:
		fs := flavorsFor(op)
		i := slices.IndexFunc(fs, func(f flavor) bool { return f.label() == gen })
		if i < 0 {
			return nil, fmt.Errorf("synth: no generator %q for %s", gen, op)
		}
		s, err = beamSearch(c, op, n, fs[i:i+1], 1)
	}
	if err == nil && s != nil {
		s.Op, s.NP, s.NumSteps = op, c.np, len(s.Steps)
		err = s.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("synth: generator %q produced an invalid schedule: %w", gen, err)
	}
	return s, nil
}

// Enumerate searches schedules for one collective on np ranks (mapped
// onto cores 0..np-1 of the model's mesh) at vector size n, and returns
// the best candidates by model cost, provenance-deduplicated and
// validated. op is an OpKind string: "allreduce", "broadcast", or
// "reduce" (root = rank 0).
func Enumerate(model *timing.Model, op string, np, n int, opt Options) ([]Candidate, error) {
	if err := checkCell(model, op, np, n); err != nil {
		return nil, err
	}
	c := newCoster(model, np)
	var cands []Candidate
	for _, gen := range generators(op) {
		s, err := generate(c, op, n, gen)
		if err != nil {
			return nil, err
		}
		if s != nil {
			cands = append(cands, Candidate{Sched: s, Cost: c.scheduleCost(s, n)})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Cost < cands[j].Cost })
	// Drop structural duplicates (different flavors can converge on the
	// same move sequence; keep the cheapest label).
	seen := map[string]bool{}
	uniq := cands[:0]
	for _, cand := range cands {
		fp := movesFingerprint(cand.Sched)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		uniq = append(uniq, cand)
	}
	cands = uniq
	if opt.MaxCands <= 0 {
		opt.MaxCands = 4
	}
	if len(cands) > opt.MaxCands {
		cands = cands[:opt.MaxCands]
	}
	return cands, nil
}

func movesFingerprint(s *Schedule) string {
	b := make([]byte, 0, 8+8*s.TotalMoves())
	b = append(b, byte(s.Chunks), byte(len(s.Steps)))
	for _, step := range s.Steps {
		b = append(b, 0xff)
		for _, mv := range step {
			b = append(b, byte(mv.Chunk), byte(mv.From), byte(mv.From>>8),
				byte(mv.To), byte(mv.To>>8), byte(mv.Kind))
		}
	}
	return string(b)
}

// searchState is one beam entry of the C=1 search: the IR state (one
// chunk: the whole vector), the steps taken so far, and the accumulated
// model cost.
type searchState struct {
	st    state
	steps [][]Move
	cost  simtime.Duration
	// active, for rooted reduce: ranks whose partial has not yet been
	// absorbed (the convergecast frontier). nil for other ops.
	active []bool
	// mixed notes that steps came from more than one flavor.
	lastLabel string
	mixed     bool
}

func (s *searchState) clone() *searchState {
	c := *s
	c.st = s.st.clone()
	c.steps = slices.Clone(s.steps)
	c.active = slices.Clone(s.active)
	return &c
}

// fingerprint encodes the exact search state for beam deduplication.
func (s *searchState) fingerprint() string {
	b := make([]byte, 0, 8*len(s.st.bits)+len(s.active))
	for _, w := range s.st.bits {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	for _, a := range s.active {
		if a {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return string(b)
}

func (s *searchState) biggestPop() int {
	m := 0
	for r := 0; r < s.st.np; r++ {
		m = max(m, s.st.mask(r, 0).pop())
	}
	return m
}

// beamSearch explores step sequences built from the given flavors and
// returns the best terminal schedule, or nil when no flavor can finish
// within the step budget. With a single flavor and width 1 it is a
// greedy rollout of that flavor. Every step goes through applyStep, so
// an illegal one is an error at the step that emitted it.
func beamSearch(c *coster, op string, n int, flavors []flavor, width int) (*Schedule, error) {
	np := c.np
	start, err := initState(op, np, 1)
	if err != nil {
		return nil, err
	}
	init := &searchState{st: start}
	if op == "reduce" {
		init.active = make([]bool, np)
		for r := range init.active {
			init.active[r] = true
		}
	}

	elemsOf := func(int) int { return n } // C=1: the chunk is the vector
	maxSteps := 2*ceilLog2(np) + 6
	beam := []*searchState{init}
	var best *searchState
	for depth := 0; depth < maxSteps && len(beam) > 0; depth++ {
		var next []*searchState
		seen := map[string]bool{}
		for _, st := range beam {
			for _, f := range flavors {
				step := nextStep(c, op, f, st)
				if len(step) == 0 {
					continue // no legal move under this flavor
				}
				child := st.clone()
				if err := applyStep(op, child.st, step); err != nil {
					return nil, fmt.Errorf("step %d: %w", depth, err)
				}
				if child.active != nil {
					for _, mv := range step {
						child.active[mv.From] = false // a reduce sender is absorbed
					}
				}
				child.steps = append(child.steps, step)
				child.cost += c.stepCost(step, elemsOf)
				if child.lastLabel != "" && child.lastLabel != f.label() {
					child.mixed = true
				}
				child.lastLabel = f.label()
				if _, _, ok := child.st.unfinished(op); !ok {
					if best == nil || child.cost < best.cost {
						best = child
					}
					continue
				}
				if best != nil && child.cost+c.lowerBound(child.biggestPop()) >= best.cost {
					continue // pruned by the lower bound
				}
				fp := child.fingerprint()
				if seen[fp] {
					continue
				}
				seen[fp] = true
				next = append(next, child)
			}
		}
		sort.SliceStable(next, func(i, j int) bool {
			li := next[i].cost + c.lowerBound(next[i].biggestPop())
			lj := next[j].cost + c.lowerBound(next[j].biggestPop())
			return li < lj
		})
		if len(next) > width {
			next = next[:width]
		}
		beam = next
	}
	if best == nil {
		return nil, nil
	}
	label := best.lastLabel
	if best.mixed {
		label = "beam"
	}
	return &Schedule{Chunks: 1, Steps: best.steps, Gen: label}, nil
}

// partnerKey orders candidate partners for a sender: "near" by pure
// Manhattan distance, "xy" dimension-ordered (same tile, then same row,
// then same column, then the rest), with the rank as the final
// deterministic tie-break.
func partnerKey(c *coster, gen string, a, b int) [3]int {
	h := c.hops(a, b)
	class := 0
	if gen == "xy" {
		ca, cb := c.coords[a], c.coords[b]
		switch {
		case h == 0:
			class = 0
		case ca.Y == cb.Y:
			class = 1
		case ca.X == cb.X:
			class = 2
		default:
			class = 3
		}
	}
	return [3]int{class, h, b}
}

func keyLess(a, b [3]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// nextStep builds one legal step from st under the given flavor. The
// move list order (the compiler's global total order) is deterministic:
// moves are appended in the order decisions are made and every decision
// loop runs over rank-sorted slices.
func nextStep(c *coster, op string, f flavor, s *searchState) []Move {
	st, np := s.st, s.st.np
	switch op {
	case "broadcast":
		// Holders serve the nearest non-holders, at most fan each.
		var holders, missing []int
		for r := 0; r < np; r++ {
			if st.full(r, 0) {
				holders = append(holders, r)
			} else {
				missing = append(missing, r)
			}
		}
		return serve(c, f, holders, missing)

	case "allreduce":
		// Once full ranks exist they serve non-full ranks with copies
		// (the finish phase for np that is not a power of two);
		// otherwise pair ranks with disjoint masks for symmetric
		// exchange+combine.
		var fulls, part []int
		for r := 0; r < np; r++ {
			if st.full(r, 0) {
				fulls = append(fulls, r)
			} else {
				part = append(part, r)
			}
		}
		if len(fulls) > 0 {
			return serve(c, f, fulls, part)
		}
		// Exchange phase: match each unpaired rank (ascending) with its
		// best disjoint partner, preferring equal contribution mass
		// (balanced doubling), then the flavor's distance order.
		var step []Move
		paired := make([]bool, np)
		for r := 0; r < np; r++ {
			if paired[r] {
				continue
			}
			bestP := -1
			var bestK [3]int
			myPop := st.mask(r, 0).pop()
			for p := r + 1; p < np; p++ {
				if paired[p] || !st.mask(r, 0).disjoint(st.mask(p, 0)) {
					continue
				}
				k := partnerKey(c, f.gen, r, p)
				popGap := st.mask(p, 0).pop() - myPop
				if popGap < 0 {
					popGap = -popGap
				}
				k2 := [3]int{popGap*16 + k[0], k[1], k[2]}
				if bestP < 0 || keyLess(k2, bestK) {
					bestP, bestK = p, k2
				}
			}
			if bestP >= 0 {
				paired[r], paired[bestP] = true, true
				step = append(step,
					Move{Chunk: 0, From: r, To: bestP, Kind: Combine},
					Move{Chunk: 0, From: bestP, To: r, Kind: Combine})
			}
		}
		return step

	case "reduce":
		// Convergecast: active non-root ranks send their partial to the
		// nearest active rank at least as close to the root (rank 0),
		// which absorbs one partial per step (single-write rule).
		var active []int
		for r := 0; r < np; r++ {
			if s.active[r] {
				active = append(active, r)
			}
		}
		if len(active) <= 1 {
			return nil
		}
		absorbed := make([]bool, np)
		sent := make([]bool, np)
		var step []Move
		// Farthest-from-root senders choose first so leaves drain
		// toward the root.
		order := append([]int(nil), active...)
		sort.SliceStable(order, func(i, j int) bool {
			hi, hj := c.hops(order[i], 0), c.hops(order[j], 0)
			if hi != hj {
				return hi > hj
			}
			return order[i] > order[j]
		})
		for _, r := range order {
			// A rank that absorbs this step cannot also send: its chunk
			// is being written and the validator (correctly) rejects
			// reading it in the same step.
			if r == 0 || sent[r] || absorbed[r] {
				continue
			}
			bestP := -1
			var bestK [3]int
			for _, p := range active {
				if p == r || sent[p] || absorbed[p] {
					continue
				}
				if c.hops(p, 0) > c.hops(r, 0) || (c.hops(p, 0) == c.hops(r, 0) && p > r) {
					continue // only send rootward
				}
				k := partnerKey(c, f.gen, r, p)
				if bestP < 0 || keyLess(k, bestK) {
					bestP, bestK = p, k
				}
			}
			if bestP >= 0 {
				absorbed[bestP] = true
				sent[r] = true
				step = append(step, Move{Chunk: 0, From: r, To: bestP, Kind: Combine})
			}
		}
		return step
	}
	return nil
}

// serve has the holders in from copy chunk 0 to the ranks in to, each
// missing rank (ascending) taking its nearest holder in the flavor's
// order that has served fewer than fan ranks this step.
func serve(c *coster, f flavor, from, to []int) []Move {
	served := make([]int, c.np)
	var step []Move
	for _, r := range to {
		best := -1
		var bestK [3]int
		for _, h := range from {
			if served[h] >= f.fan {
				continue
			}
			k := partnerKey(c, f.gen, h, r)
			if best < 0 || keyLess(k, bestK) {
				best, bestK = h, k
			}
		}
		if best >= 0 {
			served[best]++
			step = append(step, Move{Chunk: 0, From: best, To: r, Kind: Copy})
		}
	}
	return step
}

func ceilLog2(n int) int {
	s, v := 0, 1
	for v < n {
		v *= 2
		s++
	}
	return s
}
