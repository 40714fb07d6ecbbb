// Package bench is the measurement harness that regenerates the paper's
// evaluation: per-collective latency sweeps over vector sizes (Fig. 9),
// the block-partitioning tables (Fig. 6), the application runtimes
// (Fig. 10), and the summary speedup table of Sec. V-A.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"scc/internal/core"
	"scc/internal/fabric"
	"scc/internal/rcce"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// Op names one collective operation, matching the paper's Fig. 9 panels.
type Op string

// The six collectives of Fig. 9.
const (
	OpAllgather     Op = "allgather"
	OpAlltoall      Op = "alltoall"
	OpReduceScatter Op = "reducescatter"
	OpBroadcast     Op = "broadcast"
	OpReduce        Op = "reduce"
	OpAllreduce     Op = "allreduce"
)

// AllOps returns the Fig. 9 panels in order (a)..(f).
func AllOps() []Op {
	return []Op{OpAllgather, OpAlltoall, OpReduceScatter, OpBroadcast, OpReduce, OpAllreduce}
}

// Stack identifies one measured communication stack (a figure legend
// entry).
type Stack struct {
	Name string
	// Cfg is the collectives configuration; ignored when RCKMPI is set.
	Cfg    core.Config
	RCKMPI bool
	// Algo, when non-empty, pins every collective to the named registry
	// algorithm (core.Fixed) instead of the stack's selector. Ignored
	// for RCKMPI.
	Algo string
}

// Label is the legend/CSV column name: the stack name, suffixed with
// the pinned algorithm when one is set.
func (st Stack) Label() string {
	if st.Algo == "" {
		return st.Name
	}
	return st.Name + " [" + st.Algo + "]"
}

// StacksFor returns the legend entries of the Fig. 9 panel for op, in
// the paper's order. The MPB-based stack exists only for Allreduce; the
// balanced stack only for the block-partitioned collectives.
func StacksFor(op Op) []Stack {
	s := []Stack{
		{Name: "RCKMPI", RCKMPI: true},
		{Name: "blocking", Cfg: core.ConfigBlocking},
		{Name: "iRCCE", Cfg: core.ConfigIRCCE},
		{Name: "lightweight non-blocking", Cfg: core.ConfigLightweight},
	}
	switch op {
	case OpAllgather, OpAlltoall:
		// These move whole vectors; block balancing does not apply.
	case OpReduceScatter, OpBroadcast, OpReduce:
		s = append(s, Stack{Name: "lightweight non-blocking, balanced", Cfg: core.ConfigBalanced})
	case OpAllreduce:
		s = append(s,
			Stack{Name: "lightweight non-blocking, balanced", Cfg: core.ConfigBalanced},
			Stack{Name: "MPB-based Allreduce", Cfg: core.ConfigMPB},
		)
	}
	return s
}

// StacksForAlgo returns StacksFor(op) with every non-RCKMPI stack
// pinned to the named registry algorithm ("" leaves the stacks' own
// selectors in place, identical to StacksFor). Labels grow an
// "[algo]" suffix so tables and CSVs stay self-describing.
func StacksForAlgo(op Op, algo string) []Stack {
	s := StacksFor(op)
	if algo == "" {
		return s
	}
	for i := range s {
		if !s[i].RCKMPI {
			s[i].Algo = algo
		}
	}
	return s
}

// Measure runs one collective of the given vector size on a fresh chip
// of the model's geometry and returns the average latency over reps repetitions as
// observed on core 0 (like the paper's methodology; the first, cache-cold
// repetition is treated as warm-up and excluded).
func Measure(model *timing.Model, op Op, st Stack, n, reps int) simtime.Duration {
	lat, err := stackProgram(model, op, st, n, reps).run()
	if err != nil {
		panic(fmt.Sprintf("bench: %s/%s n=%d: %v", op, st.Name, n, err))
	}
	return lat
}

// stackProgram is the measured program of one Fig. 9 cell: op under
// stack st, buffers sized for the worst case (alltoall/allgather need
// p*n), repetitions separated by the native barrier.
func stackProgram(model *timing.Model, op Op, st Stack, n, reps int) *program {
	cfg := st.Cfg
	if st.Algo != "" {
		cfg.Selector = core.Fixed(st.Algo)
	}
	return &program{
		model: model, reps: reps, op: op, n: n, bufN: n * model.NumCores(),
		ueBarrier: true, rckmpi: st.RCKMPI,
		ctx: func(_ *fabric.System, _ int, ue *rcce.UE) (*core.Ctx, error) {
			return core.NewCtx(ue, cfg), nil
		},
	}
}

// Point is one sample of a latency curve.
type Point struct {
	N       int
	Latency simtime.Duration
}

// Series is one labeled latency curve of a Fig. 9 panel.
type Series struct {
	Stack  Stack
	Points []Point
}

// Sweep measures one stack across the given vector sizes.
func Sweep(model *timing.Model, op Op, st Stack, sizes []int, reps int) Series {
	return NewRunner(1).panels(model, []Op{op}, func(Op) []Stack { return []Stack{st} }, sizes, reps)[0][0]
}

// Panel runs the complete Fig. 9 panel for op: every legend stack over
// the size range.
func Panel(model *timing.Model, op Op, sizes []int, reps int) []Series {
	return NewRunner(1).Panel(model, op, sizes, reps)
}

// Sizes returns the paper's x-axis: every vector size in [lo, hi].
func Sizes(lo, hi, step int) []int {
	if step < 1 {
		step = 1
	}
	var out []int
	for n := lo; n <= hi; n += step {
		out = append(out, n)
	}
	return out
}

// MeanLatency averages a series (used for the paper's "average speedup"
// statements).
func MeanLatency(s Series) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.Latency.Micros()
	}
	return sum / float64(len(s.Points))
}

// SpeedupVsBaseline computes mean(baseline)/mean(s) - the paper reports
// all speedups relative to the blocking RCCE/RCCE_comm stack.
func SpeedupVsBaseline(baseline, s Series) float64 {
	m := MeanLatency(s)
	if m == 0 {
		return 0
	}
	return MeanLatency(baseline) / m
}

// checkAligned verifies that every series has the same number of points
// as the first, so row-major rendering cannot index out of range.
func checkAligned(series []Series) error {
	for _, s := range series {
		if len(s.Points) != len(series[0].Points) {
			return fmt.Errorf("bench: ragged panel: series %q has %d points, %q has %d",
				s.Stack.Label(), len(s.Points), series[0].Stack.Label(), len(series[0].Points))
		}
	}
	return nil
}

// WriteCSV emits a panel as CSV: n, then one latency column (in
// microseconds) per stack.
func WriteCSV(w io.Writer, series []Series) error {
	if len(series) == 0 {
		return nil
	}
	if err := checkAligned(series); err != nil {
		return err
	}
	headers := []string{"n"}
	for _, s := range series {
		headers = append(headers, s.Stack.Label())
	}
	if _, err := fmt.Fprintln(w, strings.Join(headers, ",")); err != nil {
		return err
	}
	for i, pt := range series[0].Points {
		row := []string{fmt.Sprintf("%d", pt.N)}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.2f", s.Points[i].Latency.Micros()))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable renders a panel as an aligned text table.
func WriteTable(w io.Writer, title string, series []Series) error {
	if err := checkAligned(series); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if len(series) == 0 {
		return nil
	}
	cols := []string{"n"}
	for _, s := range series {
		cols = append(cols, s.Stack.Label())
	}
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
		if widths[i] < 12 {
			widths[i] = 12
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(cols); err != nil {
		return err
	}
	for i, pt := range series[0].Points {
		cells := []string{fmt.Sprintf("%d", pt.N)}
		for _, s := range series {
			cells = append(cells, fmt.Sprintf("%.1fus", s.Points[i].Latency.Micros()))
		}
		if err := writeRow(cells); err != nil {
			return err
		}
	}
	return nil
}

// SummaryRow is one line of the Sec. V-A summary: per-collective average
// speedup of the best non-MPB optimized stack over the blocking baseline.
type SummaryRow struct {
	Op       Op
	Speedup  float64
	BestName string
}

// Summary computes the paper's closing table ("all collectives show
// speedups between approximately 1.6x and 2.8x on average"). It returns
// an error if any panel lacks the blocking baseline every speedup is
// measured against.
func Summary(model *timing.Model, sizes []int, reps int) ([]SummaryRow, error) {
	return NewRunner(1).Summary(model, sizes, reps)
}

// SummarizePanels reduces already-measured panels (one per op, in op
// order) to the Sec. V-A summary rows. Speedups are relative to each
// panel's "blocking" series; a panel without that baseline is an error —
// silently dividing against a zero-value series would emit speedup-0
// rows that look like measurements.
func SummarizePanels(ops []Op, panels [][]Series) ([]SummaryRow, error) {
	if len(ops) != len(panels) {
		return nil, fmt.Errorf("bench: %d ops but %d panels", len(ops), len(panels))
	}
	var rows []SummaryRow
	for i, op := range ops {
		panel := panels[i]
		var baseline *Series
		for j := range panel {
			if panel[j].Stack.Name == "blocking" {
				baseline = &panel[j]
			}
		}
		if baseline == nil || len(baseline.Points) == 0 {
			return nil, fmt.Errorf("bench: %s panel has no blocking baseline series to compare against", op)
		}
		best, bestName := 0.0, ""
		for _, s := range panel {
			if s.Stack.RCKMPI || s.Stack.Name == "blocking" || s.Stack.Cfg.MPBDirect {
				continue
			}
			if sp := SpeedupVsBaseline(*baseline, s); sp > best {
				best, bestName = sp, s.Stack.Name
			}
		}
		rows = append(rows, SummaryRow{Op: op, Speedup: best, BestName: bestName})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Op < rows[j].Op })
	return rows, nil
}
