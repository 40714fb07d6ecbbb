package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"scc/internal/core"
	"scc/internal/fabric"
	"scc/internal/rcce"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// This file makes topology a measurable axis: flag-spec parsing for
// arbitrary meshes and chip counts, hierarchical multi-chip latency
// measurement over the fabric, and panel writers that label every row
// with the geometry so sweeps over different topologies concatenate
// into one file.

// SpecError is the typed parse error for the topology flags. Callers
// (the cmd tools) match on it with errors.As to separate user input
// mistakes from harness bugs.
type SpecError struct {
	Flag  string // the flag name, e.g. "-mesh"
	Value string // the rejected input
	Why   string // what was wrong with it
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("%s=%q: %s", e.Flag, e.Value, e.Why)
}

// ParseMeshSpec parses a ROWSxCOLS[xCORES_PER_TILE] mesh spec ("4x6x2"
// is the paper's chip, "8x8x1" a 64-core variant) into a derived
// timing model, validating the resulting geometry. The two-part form
// means one core per tile ("100x100" is the 10,000-core scaling
// target). The empty string means the paper's default chip.
func ParseMeshSpec(spec string) (*timing.Model, error) {
	if spec == "" {
		return timing.Default(), nil
	}
	parts := strings.Split(spec, "x")
	if len(parts) != 2 && len(parts) != 3 {
		return nil, &SpecError{Flag: "-mesh", Value: spec,
			Why: "want ROWSxCOLS or ROWSxCOLSxCORES_PER_TILE, e.g. 100x100 or 4x6x2"}
	}
	dims := [3]int{0, 0, 1} // cores per tile defaults to 1
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, &SpecError{Flag: "-mesh", Value: spec,
				Why: fmt.Sprintf("%q is not an integer", p)}
		}
		if v < 1 {
			return nil, &SpecError{Flag: "-mesh", Value: spec,
				Why: fmt.Sprintf("dimension %d must be positive", v)}
		}
		dims[i] = v
	}
	m := timing.Topology(dims[0], dims[1], dims[2])
	if err := m.Validate(); err != nil {
		return nil, &SpecError{Flag: "-mesh", Value: spec, Why: err.Error()}
	}
	return m, nil
}

// ParseChips parses the -chips flag: a positive chip count.
func ParseChips(val string) (int, error) {
	k, err := strconv.Atoi(val)
	if err != nil {
		return 0, &SpecError{Flag: "-chips", Value: val, Why: "not an integer"}
	}
	if k < 1 {
		return 0, &SpecError{Flag: "-chips", Value: val, Why: "need at least one chip"}
	}
	return k, nil
}

// MeshLabel renders a system geometry for titles and CSV rows:
// "6x4x2" for one chip, "2x 6x4x2" for a multi-chip system.
func MeshLabel(model *timing.Model, chips int) string {
	mesh := fmt.Sprintf("%dx%dx%d", model.MeshHeight, model.MeshWidth, model.CoresPerTile)
	if chips > 1 {
		return fmt.Sprintf("%dx %s", chips, mesh)
	}
	return mesh
}

// MeasureHier measures one hierarchical collective (Allreduce or
// Broadcast) of n doubles across a multi-chip system, forcing intra as
// the intra-chip phase ("" = the selector's choice), and returns the
// average latency over reps timed repetitions as seen by the global
// rank 0 (chip 0, core 0). With chips <= 1 it degrades to the flat
// single-chip measurement on the balanced stack, so flat-vs-hier
// crossover sweeps share one entry point.
func MeasureHier(model *timing.Model, chips int, intra string, op Op, n, reps int) simtime.Duration {
	if chips <= 1 {
		st := Stack{Name: "lightweight non-blocking, balanced", Cfg: core.ConfigBalanced, Algo: intra}
		return Measure(model, op, st, n, reps)
	}
	if op != OpAllreduce && op != OpBroadcast {
		panic("bench: hierarchical measurement supports allreduce and broadcast, not " + string(op))
	}
	pr := program{
		model: model, chips: chips, reps: reps, op: op, n: n, bufN: n,
		ctx: func(sys *fabric.System, chip int, ue *rcce.UE) (*core.Ctx, error) {
			return core.NewCtxFabric(ue, core.ConfigBalanced, &core.Fabric{
				Port: sys.Port(chip), Chip: chip, Chips: chips, Intra: intra,
			})
		},
	}
	lat, err := pr.run()
	if err != nil {
		panic(fmt.Sprintf("bench: hier %s n=%d over %d chips: %v", op, n, chips, err))
	}
	return lat
}

// HierSweep measures the hierarchical latency curve of one op across
// the given vector sizes, labeled with the system geometry.
func HierSweep(model *timing.Model, chips int, intra string, op Op, sizes []int, reps int) Series {
	name := "hierarchical " + MeshLabel(model, chips)
	if intra != "" {
		name += " [" + intra + "]"
	}
	s := Series{Stack: Stack{Name: name}}
	for _, n := range sizes {
		s.Points = append(s.Points, Point{N: n, Latency: MeasureHier(model, chips, intra, op, n, reps)})
	}
	return s
}

// WriteTopologyCSV emits a panel like WriteCSV with leading mesh,
// cores and chips columns derived from the measured system, so sweeps
// over different geometries concatenate into one self-describing file.
func WriteTopologyCSV(w io.Writer, model *timing.Model, chips int, series []Series) error {
	if len(series) == 0 {
		return nil
	}
	if err := checkAligned(series); err != nil {
		return err
	}
	if chips < 1 {
		chips = 1
	}
	headers := []string{"mesh", "cores", "chips", "n"}
	for _, s := range series {
		headers = append(headers, s.Stack.Label())
	}
	if _, err := fmt.Fprintln(w, strings.Join(headers, ",")); err != nil {
		return err
	}
	mesh := fmt.Sprintf("%dx%dx%d", model.MeshHeight, model.MeshWidth, model.CoresPerTile)
	cores := chips * model.NumCores()
	for i, pt := range series[0].Points {
		row := []string{mesh, fmt.Sprintf("%d", cores), fmt.Sprintf("%d", chips), fmt.Sprintf("%d", pt.N)}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.2f", s.Points[i].Latency.Micros()))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteTopologyTable renders a panel as an aligned text table titled
// with the system geometry.
func WriteTopologyTable(w io.Writer, title string, model *timing.Model, chips int, series []Series) error {
	if chips < 1 {
		chips = 1
	}
	full := fmt.Sprintf("%s  [mesh %s, %d cores]", title, MeshLabel(model, chips), chips*model.NumCores())
	return WriteTable(w, full, series)
}
