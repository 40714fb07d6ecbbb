package synth

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"

	"scc/internal/core"
	"scc/internal/timing"
)

// The committed schedule table: like internal/core's tuned_default.json
// it is a data artifact produced by a sweep (`sccbench -synth`) and
// checked in, so every build ships the same winning schedules. An entry
// is a recipe, not a move list: the (op, np, size-bucket) cell, the
// label of the generator that won it, and the vector size and mesh that
// generator ran on. Every generator is deterministic, so ParseTable
// rebuilds each schedule move for move through the dispatch Enumerate
// uses (generate), which validates it. Register compiles the entries
// into algorithms named
//
//	synth:<op>:<np>:<bucket>
//
// where <bucket> is the cell's MaxN upper edge in elements, or "inf"
// for the unbounded bucket. Registration is explicit and idempotent —
// call RegisterDefaults from main() — never done at package init: the
// root package's golden tests enumerate the registry, and their digests
// are pinned to the hand-written set.

// TableEntry is one committed cell.
type TableEntry struct {
	Op   string `json:"op"`
	NP   int    `json:"np"`
	MaxN int    `json:"max_n"` // bucket upper edge in elements; 0 = unbounded
	Gen  string `json:"gen"`   // winning generator's label: "beam", "near:f1", "hd:4", ...
	N    int    `json:"n"`     // vector size the generator ranked moves at
	Mesh string `json:"mesh"`  // the searched mesh, ROWSxCOLSxCORES_PER_TILE
	// Sched is the validated schedule the recipe builds.
	Sched *Schedule `json:"-"`
}

// Table is the committed schedule set.
type Table struct {
	// Transport records the point-to-point configuration the sweep
	// measured under (provenance, like core.DecisionTable.Transport).
	Transport string       `json:"transport,omitempty"`
	Entries   []TableEntry `json:"entries"`
}

// NameFor builds the registry name of a cell's algorithm.
func NameFor(op string, np, maxN int) string {
	if maxN == 0 {
		return fmt.Sprintf("synth:%s:%d:inf", op, np)
	}
	return fmt.Sprintf("synth:%s:%d:%d", op, np, maxN)
}

// build rebuilds the entry's schedule from its recipe.
func (e *TableEntry) build() error {
	model, err := timing.ParseMeshSpec(e.Mesh)
	if err != nil {
		return fmt.Errorf("mesh %q: %w", e.Mesh, err)
	}
	if model.MeshSpec() != e.Mesh {
		return fmt.Errorf("mesh %q is not ROWSxCOLSxCORES_PER_TILE", e.Mesh)
	}
	if err := checkCell(model, e.Op, e.NP, e.N); err != nil {
		return err
	}
	s, err := generate(newCoster(model, e.NP), e.Op, e.N, e.Gen)
	if err != nil {
		return err
	}
	if s == nil {
		return fmt.Errorf("generator %q does not rebuild: it does not apply to this cell", e.Gen)
	}
	if s.Gen != e.Gen {
		return fmt.Errorf("generator %q does not rebuild: it yields a %q schedule here", e.Gen, s.Gen)
	}
	e.Sched = s
	return nil
}

// ParseTable decodes a committed table and rebuilds every entry's
// schedule.
func ParseTable(data []byte) (*Table, error) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("synth: parse table: %w", err)
	}
	seen := map[string]bool{}
	for i := range t.Entries {
		e := &t.Entries[i]
		name := NameFor(e.Op, e.NP, e.MaxN)
		if seen[name] {
			return nil, fmt.Errorf("synth: duplicate table entry %s", name)
		}
		seen[name] = true
		if err := e.build(); err != nil {
			return nil, fmt.Errorf("synth: table entry %s: %w", name, err)
		}
	}
	return &t, nil
}

// Register compiles and registers every entry not already present in
// the algorithm registry (idempotent: re-registering an existing name
// is a no-op, so tables may be loaded more than once). The schedules
// are the validated ones ParseTable or the synthesis sweep built.
func (t *Table) Register() error {
	for _, e := range t.Entries {
		name := NameFor(e.Op, e.NP, e.MaxN)
		k, err := core.ParseOpKind(e.Op)
		if err != nil {
			return err
		}
		if core.LookupAlgorithm(k, name) == nil {
			core.RegisterAlgorithm(compile(e.Sched, name))
		}
	}
	return nil
}

//go:embed synth_default.json
var defaultTableJSON []byte

// DefaultTable parses the embedded committed table.
func DefaultTable() (*Table, error) { return ParseTable(defaultTableJSON) }

var registerOnce sync.Once

// RegisterDefaults registers the embedded table's schedules. Explicit
// and idempotent; binaries that want the synthesized algorithms call it
// once at startup. It panics on an invalid embedded table (the file is
// committed alongside this code; corruption is a build error, not a
// runtime condition).
func RegisterDefaults() {
	registerOnce.Do(func() {
		t, err := DefaultTable()
		if err != nil {
			panic(err)
		}
		if err := t.Register(); err != nil {
			panic(err)
		}
	})
}
