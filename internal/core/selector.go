package core

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Selector picks the algorithm a Ctx runs for one collective call. The
// registry makes algorithms available; the selector is the policy that
// chooses among them. Three policies ship built in:
//
//   - Fixed(name): always the named algorithm (benchmarks, -algo flags)
//   - PaperHeuristic(): the paper's size threshold plus Config flags,
//     bit-for-bit the pre-registry behavior
//   - Tuned(): a measured decision table keyed by (op, np, size bucket),
//     the Open MPI "tuned" approach
type Selector interface {
	// Select returns the algorithm name to run for collective k on x's
	// communicator with an n-element vector. An unknown or inapplicable
	// name makes the dispatcher fall back to the paper heuristic.
	Select(x *Ctx, k OpKind, n int) string
}

// --- Fixed ---

type fixedSel struct{ algo string }

// Fixed returns a selector that always picks the named algorithm.
// Collectives for which the name is not registered or not applicable
// fall back to the paper heuristic; CheckSelector rejects a name that
// no collective registers.
func Fixed(name string) Selector { return fixedSel{algo: name} }

func (s fixedSel) Select(*Ctx, OpKind, int) string { return s.algo }

// CheckSelector rejects, with ErrInvalid, a Fixed selector whose name
// no collective registers. A name registered for some collectives keeps
// the per-call fallback on the others.
func CheckSelector(sel Selector) error {
	s, ok := sel.(fixedSel)
	if !ok {
		return nil
	}
	for k := range registry {
		if LookupAlgorithm(OpKind(k), s.algo) != nil {
			return nil
		}
	}
	return fmt.Errorf("core: %w: no collective registers algorithm %q", ErrInvalid, s.algo)
}

// --- PaperHeuristic ---

type paperSel struct{}

// PaperHeuristic returns the selection policy the paper's code used
// before the registry existed: binomial trees below the short-message
// threshold, the MPB-direct ring when Config.MPBDirect applies, and the
// block-partitioned ring otherwise. TestPaperHeuristicMatchesLegacy
// locks the equivalence in.
func PaperHeuristic() Selector { return paperSel{} }

func (paperSel) Select(x *Ctx, k OpKind, n int) string {
	if x.shortMessage(n) {
		return "tree"
	}
	if k == KindAllreduce && x.cfg.MPBDirect && (mpbAlg{}).Applicable(x, n) {
		return "mpb"
	}
	return "ring"
}

// --- Tuned ---

// TableEntry is one decision-table cell: for collective Op on an NP-rank
// communicator and vectors of up to MaxN elements (0 = unbounded), run
// Algorithm.
type TableEntry struct {
	Op        string `json:"op"`
	NP        int    `json:"np"`
	MaxN      int    `json:"max_n"`
	Algorithm string `json:"algorithm"`
}

// DecisionTable is the Go-loadable form of a tuner sweep: the winning
// algorithm per (op, np, message-size bucket) cell. Produced by
// internal/bench.Tune (sccbench -tune) and consumed by the Tuned
// selector.
type DecisionTable struct {
	// Transport records which point-to-point configuration the table
	// was measured under (provenance only; lookup ignores it).
	Transport string       `json:"transport,omitempty"`
	Entries   []TableEntry `json:"entries"`
}

// normalize sorts entries for deterministic lookup: by op, then np,
// then MaxN with the unbounded bucket (0) last.
func (t *DecisionTable) normalize() {
	sort.SliceStable(t.Entries, func(i, j int) bool {
		a, b := t.Entries[i], t.Entries[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.NP != b.NP {
			return a.NP < b.NP
		}
		return bucketLess(a.MaxN, b.MaxN)
	})
}

func bucketLess(a, b int) bool {
	if a == 0 {
		return false // unbounded sorts last
	}
	if b == 0 {
		return true
	}
	return a < b
}

// Validate checks every entry against the registry and op-kind names.
func (t *DecisionTable) Validate() error {
	for _, e := range t.Entries {
		k, err := ParseOpKind(e.Op)
		if err != nil {
			return fmt.Errorf("core: decision table: %w", err)
		}
		if LookupAlgorithm(k, e.Algorithm) == nil {
			return fmt.Errorf("core: decision table: %w: no %s algorithm %q (have %v)",
				ErrInvalid, e.Op, e.Algorithm, AlgorithmNames(k))
		}
		if e.NP < 1 {
			return fmt.Errorf("core: decision table: %w: entry %s/np=%d", ErrInvalid, e.Op, e.NP)
		}
		if e.MaxN < 0 {
			return fmt.Errorf("core: decision table: %w: entry %s/np=%d has negative max_n", ErrInvalid, e.Op, e.NP)
		}
	}
	return nil
}

// ParseDecisionTable loads and validates a JSON decision table.
func ParseDecisionTable(data []byte) (*DecisionTable, error) {
	var t DecisionTable
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("core: decision table: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.normalize()
	return &t, nil
}

// Lookup returns the algorithm name for (k, np, n), or "" when the
// table has no matching cell. NP matching is conservative: the largest
// tuned np not exceeding the requested one (communicators bigger than
// anything measured reuse the widest measurement), else the smallest
// tuned np.
func (t *DecisionTable) Lookup(k OpKind, np, n int) string {
	opName := k.String()
	// Collect the candidate nps for this op (entries are sorted).
	bestNP, haveLE := 0, false
	minNP := 0
	for _, e := range t.Entries {
		if e.Op != opName {
			continue
		}
		if minNP == 0 || e.NP < minNP {
			minNP = e.NP
		}
		if e.NP <= np && e.NP > bestNP {
			bestNP = e.NP
			haveLE = true
		}
	}
	if !haveLE {
		bestNP = minNP
	}
	if bestNP == 0 {
		return ""
	}
	for _, e := range t.Entries {
		if e.Op != opName || e.NP != bestNP {
			continue
		}
		if e.MaxN == 0 || n <= e.MaxN {
			return e.Algorithm
		}
	}
	return ""
}

type tunedSel struct {
	table *DecisionTable
}

func (s tunedSel) Select(x *Ctx, k OpKind, n int) string {
	if s.table == nil {
		return ""
	}
	return s.table.Lookup(k, x.NP(), n)
}

// tunedDefaultJSON is the committed table measured by the tuner sweep
// (internal/bench.Tune on the default timing model over the lightweight
// balanced transport; regenerate with `sccbench -tune`).
//
//go:embed tuned_default.json
var tunedDefaultJSON []byte

var defaultTable = sync.OnceValues(func() (*DecisionTable, error) {
	return ParseDecisionTable(tunedDefaultJSON)
})

// DefaultTable returns the committed tuner-measured decision table.
func DefaultTable() (*DecisionTable, error) { return defaultTable() }

// Tuned returns the table-driven selector backed by the committed
// default table. A corrupt embedded table degrades to the paper
// heuristic (the selector returns "" and the dispatcher falls back)
// rather than failing collective calls.
func Tuned() Selector {
	t, _ := DefaultTable() // nil on error
	return tunedSel{table: t}
}
