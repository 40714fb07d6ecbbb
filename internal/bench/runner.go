package bench

import (
	"runtime"
	"sync"

	"scc/internal/core"
	"scc/internal/fault"
	"scc/internal/rcce"
	"scc/internal/timing"
)

// Runner fans sweep cells out across a worker pool. Every cell of a
// panel — one (op, stack, n) measurement — builds its own fresh
// scc.Chip, so the cells are embarrassingly parallel; the runner only
// has to reassemble results in deterministic order. Because each cell's
// virtual-time result is independent of scheduling, the output of every
// Runner method is byte-identical at any worker count.
//
// The zero value runs with GOMAXPROCS workers; NewRunner(1) is the
// serial path — a plain loop on the caller's goroutine.
type Runner struct {
	// Workers is the worker-pool size. Values < 1 mean GOMAXPROCS.
	Workers int
}

// NewRunner returns a runner with the given pool size (< 1 = GOMAXPROCS).
func NewRunner(workers int) *Runner { return &Runner{Workers: workers} }

func (r *Runner) workers() int {
	if r == nil || r.Workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// runCells executes fn for every index in [0, n) on the worker pool and
// returns once all cells are done. Panics inside cells (Measure panics
// on simulation failure) are captured and re-raised on the caller's
// goroutine, matching the serial path's behavior.
func (r *Runner) runCells(n int, fn func(i int)) {
	w := r.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		wg      sync.WaitGroup
		next    = make(chan int)
		mu      sync.Mutex
		panicky interface{}
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer func() {
						if p := recover(); p != nil {
							mu.Lock()
							if panicky == nil {
								panicky = p
							}
							mu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if panicky != nil {
		panic(panicky)
	}
}

// Panel measures the complete Fig. 9 panel for op: every legend stack
// over the size range, one pool cell per (stack, n).
func (r *Runner) Panel(model *timing.Model, op Op, sizes []int, reps int) []Series {
	return r.Panels(model, []Op{op}, sizes, reps)[0]
}

// Panels measures several panels at once, fanning every (op, stack, n)
// cell of all of them into one pool so small panels cannot strand idle
// workers. Results come back in (ops, legend, sizes) order.
func (r *Runner) Panels(model *timing.Model, ops []Op, sizes []int, reps int) [][]Series {
	return r.PanelsAlgo(model, ops, "", sizes, reps)
}

// PanelsAlgo is Panels with every non-RCKMPI stack pinned to the named
// registry algorithm ("" leaves the stacks' own selectors in place,
// identical to Panels); labels grow an "[algo]" suffix so tables and
// CSVs stay self-describing. It is the one sweep body: every
// (op, stack, n) cell of the given ops goes into one pool.
func (r *Runner) PanelsAlgo(model *timing.Model, ops []Op, algo string, sizes []int, reps int) [][]Series {
	// Pre-size the result grid so workers write to disjoint slots.
	out := make([][]Series, len(ops))
	type cell struct {
		pi, si, ni int
		op         Op
		st         Stack
		n          int
	}
	var cells []cell
	for pi, op := range ops {
		stacks := StacksFor(op)
		out[pi] = make([]Series, len(stacks))
		for si, st := range stacks {
			if !st.RCKMPI {
				st.Algo = algo
			}
			out[pi][si] = Series{Stack: st, Points: make([]Point, len(sizes))}
			for ni, n := range sizes {
				cells = append(cells, cell{pi: pi, si: si, ni: ni, op: op, st: st, n: n})
			}
		}
	}
	r.runCells(len(cells), func(i int) {
		c := cells[i]
		out[c.pi][c.si].Points[c.ni] = Point{N: c.n, Latency: Measure(model, c.op, c.st, c.n, reps)}
	})
	return out
}

// Summary computes the paper's closing Sec. V-A table with all panels'
// cells pooled across the workers. It returns an error if any panel lacks
// the blocking baseline every speedup is measured against.
func (r *Runner) Summary(model *timing.Model, sizes []int, reps int) ([]SummaryRow, error) {
	return SummarizePanels(AllOps(), r.Panels(model, AllOps(), sizes, reps))
}

// FaultSweepAlgo measures the Fig. R1 latency vs injected fault count
// for one transport, with the Allreduce algorithm pinned to a registry
// name ("" = paper heuristic). The fault-free baseline runs first: fault
// activation times are drawn from its run length, so higher counts
// overlap the collective. The faulted counts then fan out, each on its
// own deterministic sub-seed, so adding a count never perturbs the
// other points.
func (r *Runner) FaultSweepAlgo(model *timing.Model, kind core.TransportKind, pol rcce.Policy, algo string, seed int64, n int, counts []int) []FaultPoint {
	base := measureFaultedAllreduce(model, kind, pol, algo, nil, n)
	horizon := base.Latency
	out := make([]FaultPoint, len(counts))
	r.runCells(len(counts), func(i int) {
		count := counts[i]
		if count == 0 {
			out[i] = base
			return
		}
		plan := fault.Random(seed+int64(count)*7919, count, horizon, model)
		pt := measureFaultedAllreduce(model, kind, pol, algo, plan, n)
		pt.Faults = count
		out[i] = pt
	})
	return out
}

// SelfHealSweep measures the Fig. R2 self-healing sweep: for each
// algorithm in order, its fault-free row and one row per kill fraction
// (selfHealRows). Each algorithm's kill times derive from its own
// fault-free baseline, so the per-algorithm pipeline stays serial; the
// algorithms themselves are independent cells.
func (r *Runner) SelfHealSweep(model *timing.Model, kind core.TransportKind, pol core.HealPolicy, algos []string, n int, fracs []float64) []HealPoint {
	rows := 1 + len(fracs)
	out := make([]HealPoint, len(algos)*rows)
	r.runCells(len(algos), func(i int) {
		copy(out[i*rows:(i+1)*rows], selfHealRows(model, kind, pol, algos[i], n, fracs))
	})
	return out
}
