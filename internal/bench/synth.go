package bench

import (
	"fmt"

	"scc/internal/core"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/synth"
	"scc/internal/timing"
)

// The synthesis sweep: the tuner's race of the hand-written algorithms
// plus, on every one of its (op, np, size-bucket) cells, the schedules
// synth.Enumerate searches, measured on the same sizes. Each cell's
// fastest candidate becomes a recipe row of a synth.Table (the artifact
// internal/synth embeds). Candidates are measured by direct invocation
// — compiled but never registered, so the sweep cannot perturb the
// registry the rest of the process sees.

// SynthSpecFor is the default sweep shape for a chip of numCores
// cores: the full chip, a short bucket at the paper's 512-byte
// threshold (64 elements) and a long bucket at 552 elements — the
// vector size of EXPERIMENTS.md's 512-core heuristic-misfire band, so
// the committed table always carries a schedule for that cell.
func SynthSpecFor(numCores int) TuneSpec {
	return TuneSpec{
		NPs:     []int{numCores},
		Buckets: []int{64, 552},
		Reps:    1,
		Cfg:     core.ConfigBalanced,
	}
}

// CandResult is one measured schedule candidate of a cell.
type CandResult struct {
	Gen     string // generator label ("near:f1", "beam", "hd:4", ...)
	Steps   int
	Moves   int
	Latency simtime.Duration // summed over the bucket's representative sizes
	Sched   *synth.Schedule
}

// SynthCell is one sweep cell: the tuner's result for it — Winner is
// the fastest hand-written algorithm, Latency holds every applicable
// one — next to the measured candidates.
type SynthCell struct {
	CellResult
	Cands []CandResult // model-cost order from the enumerator
	Best  int          // index of the fastest candidate
	// BeatsAll: the best candidate is strictly faster than every
	// applicable hand-written algorithm on this cell.
	BeatsAll bool
}

// Synthesize runs the sweep on the runner's worker pool and returns
// the winners table (one recipe row per cell: the fastest candidate)
// plus the full per-cell measurements behind the Pareto tables.
func Synthesize(r *Runner, model *timing.Model, sp TuneSpec) (*synth.Table, []SynthCell, error) {
	// A row records its mesh, and synth rebuilds the row's schedule on
	// the model of that mesh: the sweep must search on the same model.
	if *model != *timing.Topology(model.MeshHeight, model.MeshWidth, model.CoresPerTile) {
		return nil, nil, fmt.Errorf("bench: synth: the model differs from the plain %s mesh its table rows name", model.MeshSpec())
	}
	_, hand, err := Tune(r, model, sp)
	if err != nil {
		return nil, nil, err
	}
	cells := make([]SynthCell, len(hand))
	errs := make([]error, len(hand))
	r.runCells(len(hand), func(i int) {
		cells[i], errs[i] = synthCell(model, sp.Cfg, hand[i], sp.Reps)
	})

	table := &synth.Table{Transport: sp.Cfg.Name()}
	for i, cell := range cells {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		best := cell.Cands[cell.Best]
		table.Entries = append(table.Entries, synth.TableEntry{
			Op: cell.Op.String(), NP: cell.NP, MaxN: cell.MaxN, Gen: best.Gen,
			N: cell.NS[len(cell.NS)-1], Mesh: model.MeshSpec(), Sched: best.Sched,
		})
	}
	return table, cells, nil
}

// synthCell enumerates the candidates of one tuner cell at the bucket's
// upper representative size — the cost model ranks candidates for the
// sizes this cell serves — and measures each on all of them.
func synthCell(model *timing.Model, cfg core.Config, hand CellResult, reps int) (SynthCell, error) {
	cell := SynthCell{CellResult: hand}
	cands, err := synth.Enumerate(model, hand.Op.String(), hand.NP, hand.NS[len(hand.NS)-1], synth.Options{})
	if err != nil {
		return cell, err
	}
	if len(cands) == 0 {
		return cell, fmt.Errorf("bench: synth: no candidates for %s np=%d max_n=%d", hand.Op, hand.NP, hand.MaxN)
	}
	for _, cand := range cands {
		lat, err := measureSchedule(model, cfg, cand.Sched, hand.NS, reps)
		if err != nil {
			return cell, err
		}
		cell.Cands = append(cell.Cands, CandResult{
			Gen: cand.Sched.Gen, Steps: cand.Sched.NumSteps,
			Moves: cand.Sched.TotalMoves(), Latency: lat, Sched: cand.Sched,
		})
		if lat < cell.Cands[cell.Best].Latency {
			cell.Best = len(cell.Cands) - 1
		}
	}
	cell.BeatsAll = cell.Cands[cell.Best].Latency < cell.Latency[cell.Winner]
	return cell, nil
}

// measureSchedule compiles sched and measures it by direct invocation
// (never registered) at each of ns, summing the average latency over
// reps at core 0: communicator cores 0..np-1, remaining cores idle.
func measureSchedule(model *timing.Model, cfg core.Config, sched *synth.Schedule, ns []int, reps int) (simtime.Duration, error) {
	a, err := synth.Compile(sched, "synth:probe")
	if err != nil {
		return 0, err
	}
	k, err := core.ParseOpKind(sched.Op)
	if err != nil {
		return 0, err
	}
	var total simtime.Duration
	for _, n := range ns {
		lat, err := measureGroup(model, cfg, a, Op(sched.Op), sched.NP, n, reps, func(x *core.Ctx, src, dst scc.Addr) error {
			switch k {
			case core.KindAllreduce:
				return a.(core.AllreduceAlgorithm).Allreduce(x, src, dst, n, core.Sum)
			case core.KindBroadcast:
				return a.(core.BroadcastAlgorithm).Broadcast(x, 0, src, n)
			}
			return a.(core.ReduceAlgorithm).Reduce(x, 0, src, dst, n, core.Sum)
		})
		if err != nil {
			return 0, fmt.Errorf("bench: synth %s np=%d n=%d: %w", sched.Op, sched.NP, n, err)
		}
		total += lat
	}
	return total, nil
}
