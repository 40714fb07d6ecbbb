package core

import (
	"fmt"
	"sort"

	"scc/internal/metrics"
	"scc/internal/scc"
)

// This file defines the pluggable collective-algorithm registry. The
// paper's central finding is that the right algorithm depends on the
// message size, the communicator size and the point-to-point layer
// underneath (Sec. IV, Figs. 7-9); production MPI stacks (Open MPI
// "tuned") and the SCCL line of work encode that as an explicit set of
// named algorithms plus a selection layer instead of scattered size
// branches. Every algorithm is a named, self-describing unit over the
// Endpoint transport; Ctx dispatches through a Selector (see
// selector.go), so a new algorithm - e.g. a topology-aware tree on the
// 6x4 mesh - is a drop-in registration, not another Config flag.

// OpKind identifies which collective an algorithm implements. It is the
// selection key, distinct from Op (the reduction operator).
type OpKind uint8

// The collectives with more than one registered algorithm.
const (
	KindAllreduce OpKind = iota
	KindBroadcast
	KindReduce
	numOpKinds
)

// String names the op kind like the bench harness does.
func (k OpKind) String() string {
	switch k {
	case KindAllreduce:
		return "allreduce"
	case KindBroadcast:
		return "broadcast"
	case KindReduce:
		return "reduce"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// OpKinds lists every selectable collective.
func OpKinds() []OpKind {
	return []OpKind{KindAllreduce, KindBroadcast, KindReduce}
}

// ParseOpKind resolves an op-kind name.
func ParseOpKind(s string) (OpKind, error) {
	for _, k := range OpKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: %w: unknown collective %q", ErrInvalid, s)
}

// Algorithm is one named collective implementation. A concrete
// algorithm additionally implements the per-op interfaces below for
// every collective it supports; the registry indexes it per op.
type Algorithm interface {
	// Name is the registry key ("ring", "tree", ...); it appears in
	// trace span labels, bench CSV columns and decision tables.
	Name() string
	// Describe is a one-line summary for -list-algos.
	Describe() string
	// Applicable reports whether the algorithm can run on this context
	// for an n-element vector. Selection falls back to the paper
	// heuristic when the chosen algorithm is not applicable.
	Applicable(x *Ctx, n int) bool
}

// AllreduceAlgorithm is implemented by algorithms that provide
// Allreduce.
type AllreduceAlgorithm interface {
	Algorithm
	Allreduce(x *Ctx, src, dst scc.Addr, n int, op Op) error
}

// BroadcastAlgorithm is implemented by algorithms that provide
// Broadcast. root is a core ID, already validated by the dispatcher.
type BroadcastAlgorithm interface {
	Algorithm
	Broadcast(x *Ctx, root int, addr scc.Addr, n int) error
}

// ReduceAlgorithm is implemented by algorithms that provide Reduce.
// root is a core ID, already validated by the dispatcher.
type ReduceAlgorithm interface {
	Algorithm
	Reduce(x *Ctx, root int, src, dst scc.Addr, n int, op Op) error
}

// registry holds the per-op algorithm lists in registration order (the
// deterministic tie-break order for the tuner).
var registry [numOpKinds][]Algorithm

// RegisterAlgorithm adds an algorithm to the registry under every op
// kind whose per-op interface it implements. It panics on a duplicate
// name for the same op or on an algorithm implementing no op at all
// (registration happens at init time; a bad registration is a
// programming error, not a runtime condition).
func RegisterAlgorithm(a Algorithm) {
	registered := false
	add := func(k OpKind) {
		for _, have := range registry[k] {
			if have.Name() == a.Name() {
				panic(fmt.Sprintf("core: duplicate %s algorithm %q", k, a.Name()))
			}
		}
		registry[k] = append(registry[k], a)
		registered = true
	}
	if _, ok := a.(AllreduceAlgorithm); ok {
		add(KindAllreduce)
	}
	if _, ok := a.(BroadcastAlgorithm); ok {
		add(KindBroadcast)
	}
	if _, ok := a.(ReduceAlgorithm); ok {
		add(KindReduce)
	}
	if !registered {
		panic(fmt.Sprintf("core: algorithm %q implements no collective", a.Name()))
	}
}

// AlgorithmsFor returns the algorithms registered for one collective,
// in registration order.
func AlgorithmsFor(k OpKind) []Algorithm {
	if int(k) >= len(registry) {
		return nil
	}
	return append([]Algorithm(nil), registry[k]...)
}

// AlgorithmNames returns the registered names for one collective, in
// registration order.
func AlgorithmNames(k OpKind) []string {
	algs := AlgorithmsFor(k)
	names := make([]string, len(algs))
	for i, a := range algs {
		names[i] = a.Name()
	}
	return names
}

// AllAlgorithmNames returns the union of registered names across all
// collectives, sorted (for flag validation messages).
func AllAlgorithmNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, k := range OpKinds() {
		for _, a := range registry[k] {
			if !seen[a.Name()] {
				seen[a.Name()] = true
				names = append(names, a.Name())
			}
		}
	}
	sort.Strings(names)
	return names
}

// LookupAlgorithm resolves a name for one collective; nil when absent.
func LookupAlgorithm(k OpKind, name string) Algorithm {
	if int(k) >= len(registry) {
		return nil
	}
	for _, a := range registry[k] {
		if a.Name() == name {
			return a
		}
	}
	return nil
}

// selectAlg resolves the context's selector for collective k at vector
// size n, falling back to the always-applicable paper heuristic when
// the selector picks an unknown or inapplicable algorithm (e.g. a tuned
// table requesting "mpb" on a survivor group).
func (x *Ctx) selectAlg(k OpKind, n int) Algorithm {
	// A multi-chip context must span chips, so the hierarchical
	// composition overrides any selector; the selector still steers the
	// intra-chip phases through Fabric.Intra or the inner context.
	if x.MultiChip() {
		if a := LookupAlgorithm(k, "hier"); a != nil && a.Applicable(x, n) {
			return a
		}
	}
	sel := x.cfg.Selector
	if sel == nil {
		sel = paperSel{}
	}
	if a := LookupAlgorithm(k, sel.Select(x, k, n)); a != nil && a.Applicable(x, n) {
		return a
	}
	return LookupAlgorithm(k, paperSel{}.Select(x, k, n))
}

// traced runs body and, when a span recorder is installed on the core,
// records the whole collective as one labeled span ("allreduce[ring]").
// When a metrics registry is attached it additionally folds the call's
// per-phase time deltas into the per-(op,algorithm) breakdown — the
// data behind the "where the cycles go" table. Without either hook
// this adds no simulated work at all, so bench results are unaffected;
// with them, the only extra actions are Now() reads (which merely
// apply already-deferred local latency early), so virtual-time results
// are bit-identical either way.
func (x *Ctx) traced(k OpKind, a Algorithm, body func() error) error {
	c := x.ue.Core()
	reg := c.Metrics()
	if !c.Tracing() && reg == nil {
		return body()
	}
	t0 := c.Now()
	var before [metrics.NumPhases]int64
	if reg != nil {
		before = reg.PhaseRow(c.ID)
	}
	err := body()
	t1 := c.Now()
	label := k.String() + "[" + a.Name() + "]"
	if reg != nil {
		reg.RecordCollective(label, t1-t0, before, reg.PhaseRow(c.ID))
	}
	c.RecordSpan(label, t0, t1)
	return err
}
