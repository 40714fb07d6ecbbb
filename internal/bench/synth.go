package bench

import (
	"fmt"
	"sort"
	"strings"

	"scc/internal/core"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/synth"
	"scc/internal/timing"
)

// The synthesis sweep: like Tune, but instead of racing the registered
// hand-written algorithms against each other, it enumerates candidate
// schedules per (op, np, size-bucket) cell, measures every candidate
// AND every applicable hand algorithm on the simulator oracle, and
// emits the winning schedules as a committed synth.Table (the artifact
// internal/synth embeds). Candidates are measured by direct invocation
// — they are compiled but never registered, so the sweep cannot
// perturb the registry the rest of the process sees.

// SynthSpec parameterizes a synthesis sweep.
type SynthSpec struct {
	// NPs are the communicator sizes to synthesize for.
	NPs []int
	// Buckets are size boundaries in elements, like TuneSpec.Buckets
	// (ascending, optional trailing 0 = unbounded).
	Buckets []int
	// Ops restricts the sweep (nil = all selectable collectives).
	Ops []core.OpKind
	// Reps is the timed repetition count per measurement. The simulator
	// is deterministic, so 1 suffices; higher values only smooth
	// warm-up effects.
	Reps int
	// Cfg is the point-to-point configuration (selector/MPBDirect are
	// cleared; the schedule under test is invoked directly).
	Cfg core.Config
	// Transport labels the emitted table's provenance.
	Transport string
	// Opt bounds the per-cell enumeration.
	Opt synth.Options
}

// SynthSpecFor is the default sweep shape for a chip of numCores
// cores: the full chip, a short bucket at the paper's 512-byte
// threshold (64 elements) and a long bucket at 552 elements — the
// vector size of EXPERIMENTS.md's 512-core heuristic-misfire band, so
// the committed table always carries a schedule for that cell.
func SynthSpecFor(numCores int) SynthSpec {
	return SynthSpec{
		NPs:       []int{numCores},
		Buckets:   []int{64, 552},
		Reps:      1,
		Cfg:       core.ConfigBalanced,
		Transport: "lightweight non-blocking, balanced",
	}
}

func (sp SynthSpec) validate(numCores int) error {
	if len(sp.NPs) == 0 || len(sp.Buckets) == 0 {
		return fmt.Errorf("bench: synth spec needs at least one np and one bucket")
	}
	for i, np := range sp.NPs {
		if np < 2 || np > numCores {
			return fmt.Errorf("bench: synth spec np=%d outside [2,%d]", np, numCores)
		}
		if i > 0 && np <= sp.NPs[i-1] {
			return fmt.Errorf("bench: synth spec nps must be ascending")
		}
	}
	for i, b := range sp.Buckets {
		if b == 0 {
			if i != len(sp.Buckets)-1 {
				return fmt.Errorf("bench: synth spec unbounded bucket (0) must be last")
			}
			if i == 0 {
				return fmt.Errorf("bench: synth spec needs a bounded bucket before the unbounded one")
			}
			continue
		}
		if b < 1 || (i > 0 && b <= sp.Buckets[i-1]) {
			return fmt.Errorf("bench: synth spec buckets must be ascending")
		}
	}
	if sp.Reps < 1 {
		return fmt.Errorf("bench: synth spec reps=%d", sp.Reps)
	}
	return nil
}

func (sp SynthSpec) ops() []core.OpKind {
	if len(sp.Ops) > 0 {
		return sp.Ops
	}
	return core.OpKinds()
}

// CandResult is one measured schedule candidate of a cell.
type CandResult struct {
	Gen     string // generator label ("near:f1", "beam", "hd:4", ...)
	Steps   int
	Moves   int
	Latency simtime.Duration // summed over the bucket's representative sizes
	Sched   *synth.Schedule
}

// SynthCell is one sweep cell: every candidate and every applicable
// hand algorithm measured on the same sizes, plus the verdict.
type SynthCell struct {
	Op   core.OpKind
	NP   int
	MaxN int // bucket upper edge; 0 = unbounded
	NS   []int

	Cands []CandResult                // model-cost order from the enumerator
	Hand  map[string]simtime.Duration // applicable hand algorithms

	Winner   string // best candidate's gen label
	HandBest string // best hand algorithm
	// BeatsAll: the best candidate is strictly faster than every
	// applicable hand-written algorithm on this cell.
	BeatsAll bool
}

// measureSchedule compiles sched and measures it by direct invocation
// (never registered): average latency over reps at core 0, communicator
// cores 0..np-1, remaining cores idle.
func measureSchedule(model *timing.Model, cfg core.Config, sched *synth.Schedule, np, n, reps int) (simtime.Duration, error) {
	a, err := synth.Compile(sched, "synth:probe")
	if err != nil {
		return 0, err
	}
	k, err := core.ParseOpKind(sched.Op)
	if err != nil {
		return 0, err
	}
	cfg.Selector = nil
	cfg.MPBDirect = false
	lat, err := measureGroup(model, cfg, a, Op(sched.Op), np, n, reps, func(x *core.Ctx, src, dst scc.Addr) error {
		switch k {
		case core.KindAllreduce:
			return a.(core.AllreduceAlgorithm).Allreduce(x, src, dst, n, core.Sum)
		case core.KindBroadcast:
			return a.(core.BroadcastAlgorithm).Broadcast(x, 0, src, n)
		case core.KindReduce:
			return a.(core.ReduceAlgorithm).Reduce(x, 0, src, dst, n, core.Sum)
		}
		return fmt.Errorf("bench: synth: unknown op kind %s", k)
	})
	if err != nil {
		return 0, fmt.Errorf("bench: synth %s np=%d n=%d: %w", sched.Op, np, n, err)
	}
	return lat, nil
}

// Synthesize runs the sweep on the runner's worker pool and returns
// the winners table (one entry per cell: the fastest candidate) plus
// the full per-cell measurements behind the Pareto tables.
func Synthesize(r *Runner, model *timing.Model, sp SynthSpec) (*synth.Table, []SynthCell, error) {
	if err := sp.validate(model.NumCores()); err != nil {
		return nil, nil, err
	}
	cfg := sp.Cfg
	cfg.MPBDirect = false
	cfg.Selector = nil
	ts := TuneSpec{Buckets: sp.Buckets}

	type cellJob struct {
		k    core.OpKind
		np   int
		bi   int
		cell *SynthCell
		err  error
	}
	var jobs []*cellJob
	for _, k := range sp.ops() {
		for _, np := range sp.NPs {
			for bi := range sp.Buckets {
				jobs = append(jobs, &cellJob{k: k, np: np, bi: bi})
			}
		}
	}
	r.runCells(len(jobs), func(i int) {
		j := jobs[i]
		ns := ts.bucketSizes(j.bi)
		cell := &SynthCell{Op: j.k, NP: j.np, MaxN: sp.Buckets[j.bi], NS: ns,
			Hand: map[string]simtime.Duration{}}
		// Enumerate at the bucket's upper representative size: the cost
		// model ranks candidates for the sizes this cell serves.
		cands, err := synth.Enumerate(model, j.k.String(), j.np, ns[len(ns)-1], sp.Opt)
		if err != nil {
			j.err = err
			return
		}
		for _, cand := range cands {
			var total simtime.Duration
			for _, n := range ns {
				lat, err := measureSchedule(model, cfg, cand.Sched, j.np, n, sp.Reps)
				if err != nil {
					j.err = err
					return
				}
				total += lat
			}
			cell.Cands = append(cell.Cands, CandResult{
				Gen: cand.Sched.Gen, Steps: cand.Sched.NumSteps,
				Moves: cand.Sched.TotalMoves(), Latency: total, Sched: cand.Sched,
			})
		}
		for _, algo := range core.AlgorithmNames(j.k) {
			if strings.HasPrefix(algo, "synth:") {
				continue // never race the committed schedules against themselves
			}
			var total simtime.Duration
			ok := true
			for _, n := range ns {
				lat, applicable := MeasureAlgorithm(model, cfg, j.k, algo, j.np, n, sp.Reps)
				if !applicable {
					ok = false
					break
				}
				total += lat
			}
			if ok {
				cell.Hand[algo] = total
			}
		}
		j.cell = cell
	})

	table := &synth.Table{Transport: sp.Transport}
	var cells []SynthCell
	for _, j := range jobs {
		if j.err != nil {
			return nil, nil, j.err
		}
		cell := j.cell
		if len(cell.Cands) == 0 {
			return nil, nil, fmt.Errorf("bench: synth: no candidates for %s np=%d max_n=%d", cell.Op, cell.NP, cell.MaxN)
		}
		best := 0
		for i := 1; i < len(cell.Cands); i++ {
			if cell.Cands[i].Latency < cell.Cands[best].Latency {
				best = i
			}
		}
		cell.Winner = cell.Cands[best].Gen
		handNames := make([]string, 0, len(cell.Hand))
		for name := range cell.Hand {
			handNames = append(handNames, name)
		}
		sort.Strings(handNames)
		for _, name := range handNames {
			if cell.HandBest == "" || cell.Hand[name] < cell.Hand[cell.HandBest] {
				cell.HandBest = name
			}
		}
		cell.BeatsAll = cell.HandBest != "" && cell.Cands[best].Latency < cell.Hand[cell.HandBest]
		cells = append(cells, *cell)
		table.Entries = append(table.Entries, synth.TableEntry{
			Op: cell.Op.String(), NP: cell.NP, MaxN: cell.MaxN, Sched: cell.Cands[best].Sched,
		})
	}
	if err := table.Validate(); err != nil {
		return nil, nil, err
	}
	return table, cells, nil
}
