package bench

import (
	"errors"
	"fmt"
	"strings"

	"scc/internal/core"
	"scc/internal/fabric"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// This file is the tuner: the sweep that races every registered
// algorithm per (op, np, message-size bucket) cell and emits the
// winners as a core.DecisionTable (the Open MPI "tuned" approach).
// `sccbench -tune` runs it and writes the JSON that internal/core
// embeds as the default table.

// TuneSpec parameterizes a tuner sweep.
type TuneSpec struct {
	// NPs are the communicator sizes to measure (cores 0..np-1 active,
	// the rest of the chip idle). Must be ascending.
	NPs []int
	// Buckets are the message-size boundaries in elements: one table
	// entry per bucket with MaxN = boundary, plus a trailing unbounded
	// entry (MaxN = 0) when the last boundary is 0. Must be ascending
	// with 0 (unbounded) last.
	Buckets []int
	// Reps is the timed repetition count per measurement.
	Reps int
	// Cfg is the point-to-point configuration every algorithm runs
	// over. The tuner clears MPBDirect/Selector itself: the algorithm
	// under test is pinned per cell.
	Cfg core.Config
	// Transport labels the table's provenance (DecisionTable.Transport).
	Transport string
}

// DefaultTuneSpec is the sweep behind the committed default table:
// the lightweight balanced transport, power-of-two communicator sizes
// plus the full chip, and size buckets bracketing the paper's 512-byte
// short-message threshold (64 float64 elements).
func DefaultTuneSpec() TuneSpec {
	return TuneSpecFor(timing.Default().NumCores())
}

// TuneSpecFor builds the default sweep shape for a chip of numCores
// cores: communicator sizes doubling from 4 up to (and including) the
// full chip, with the default buckets and transport. On the paper's
// 48-core chip this reproduces the committed table's spec exactly.
func TuneSpecFor(numCores int) TuneSpec {
	var nps []int
	for np := 4; np < numCores; np *= 2 {
		nps = append(nps, np)
	}
	if len(nps) == 0 || nps[len(nps)-1] < numCores {
		nps = append(nps, numCores)
	}
	return TuneSpec{
		NPs:       nps,
		Buckets:   []int{16, 64, 256, 1024, 0},
		Reps:      3,
		Cfg:       core.ConfigBalanced,
		Transport: "lightweight non-blocking, balanced",
	}
}

// validate rejects specs the sweep cannot interpret deterministically.
func (sp TuneSpec) validate(numCores int) error {
	if len(sp.NPs) == 0 || len(sp.Buckets) == 0 {
		return fmt.Errorf("bench: tune spec needs at least one np and one bucket")
	}
	for i, np := range sp.NPs {
		if np < 2 || np > numCores {
			return fmt.Errorf("bench: tune spec np=%d outside [2,%d]", np, numCores)
		}
		if i > 0 && np <= sp.NPs[i-1] {
			return fmt.Errorf("bench: tune spec nps must be ascending")
		}
	}
	for i, b := range sp.Buckets {
		if b == 0 {
			if i != len(sp.Buckets)-1 {
				return fmt.Errorf("bench: tune spec unbounded bucket (0) must be last")
			}
			continue
		}
		if b < 1 || (i > 0 && sp.Buckets[i-1] != 0 && b <= sp.Buckets[i-1]) {
			return fmt.Errorf("bench: tune spec buckets must be ascending")
		}
	}
	return nil
}

// bucketSizes returns the vector sizes that represent bucket i: its
// lower and upper edge (buckets are half-open (prev, max]). The
// unbounded bucket is represented by its lower edge and 4x the last
// bounded boundary.
func (sp TuneSpec) bucketSizes(i int) []int {
	lo := 1
	if i > 0 {
		lo = sp.Buckets[i-1] + 1
	}
	hi := sp.Buckets[i]
	if hi == 0 {
		hi = 4 * sp.Buckets[i-1]
		if hi < lo {
			hi = 4 * lo
		}
	}
	if lo == hi {
		return []int{hi}
	}
	return []int{lo, hi}
}

// MeasureAlgorithm measures one registered algorithm for collective k
// over an np-core communicator (cores 0..np-1; the rest of the chip
// stays idle) and returns the average latency over reps timed
// repetitions as seen by core 0. ok is false when the algorithm is not
// applicable on that communicator (e.g. "mpb" on a proper subgroup),
// in which case the latency is meaningless.
func MeasureAlgorithm(model *timing.Model, cfg core.Config, k core.OpKind, algo string, np, n, reps int) (lat simtime.Duration, ok bool) {
	a := core.LookupAlgorithm(k, algo)
	if a == nil {
		return 0, false
	}
	cfg.Selector = core.Fixed(algo)
	// The registry's kinds are named like their Fig. 9 panels.
	lat, err := measureGroup(model, cfg, a, Op(k.String()), np, n, reps, nil)
	if errors.Is(err, errNotApplicable) {
		return 0, false
	}
	if err != nil {
		panic(fmt.Sprintf("bench: tune %s[%s] np=%d n=%d: %v", k, algo, np, n, err))
	}
	return lat, true
}

// measureGroup runs the measured program of the tuner and the synthesis
// sweep: op over the communicator of cores 0..np-1 (the rest of the chip
// idle) with n-element buffers — dispatched through the context, where
// the caller has pinned algorithm a, or through direct when that is set.
// The error is errNotApplicable when a cannot serve that communicator.
func measureGroup(model *timing.Model, cfg core.Config, a core.Algorithm, op Op, np, n, reps int, direct func(x *core.Ctx, src, dst scc.Addr) error) (simtime.Duration, error) {
	grp, err := prefixGroup(np, model.NumCores())
	if err != nil {
		return 0, err
	}
	pr := program{
		model: model, np: np, reps: reps, op: op, n: n, bufN: n, direct: direct,
		ctx: func(_ *fabric.System, _ int, ue *rcce.UE) (*core.Ctx, error) {
			x, err := core.NewCtxGroup(ue, cfg, grp)
			if err == nil && !a.Applicable(x, n) {
				err = errNotApplicable
			}
			return x, err
		},
	}
	return pr.run()
}

// CellResult records one tuner cell: the measured latency of every
// applicable algorithm (summed over the bucket's representative sizes)
// and the winner.
type CellResult struct {
	Op      core.OpKind
	NP      int
	MaxN    int // 0 = unbounded
	Winner  string
	Latency map[string]simtime.Duration // total over representative sizes; applicable algorithms only
}

// Tune races every registered algorithm over the spec's cells on the
// runner's worker pool and returns the winning decision table plus the
// per-cell measurements behind it. Ties break toward registration
// order, which puts the paper's algorithms ahead of the baselines.
func Tune(r *Runner, model *timing.Model, sp TuneSpec) (*core.DecisionTable, []CellResult, error) {
	if err := sp.validate(model.NumCores()); err != nil {
		return nil, nil, err
	}
	cfg := sp.Cfg
	cfg.MPBDirect = false // the algorithm is pinned per cell, not by flag
	cfg.Selector = nil

	type cellKey struct {
		ki, npi, bi int
	}
	type job struct {
		cellKey
		k    core.OpKind
		algo string
		np   int
		ns   []int
	}
	var jobs []job
	for ki, k := range core.OpKinds() {
		for npi, np := range sp.NPs {
			for bi := range sp.Buckets {
				for _, algo := range core.AlgorithmNames(k) {
					// The tuner ranks the hand-written algorithms only:
					// its table is embedded by internal/core, which does
					// not link the synthesized schedules, so a "synth:"
					// winner would make the committed artifact invalid.
					// Synthesized schedules have their own table (synth.go).
					if strings.HasPrefix(algo, "synth:") {
						continue
					}
					jobs = append(jobs, job{
						cellKey: cellKey{ki: ki, npi: npi, bi: bi},
						k:       k, algo: algo, np: np, ns: sp.bucketSizes(bi),
					})
				}
			}
		}
	}
	type measurement struct {
		lat simtime.Duration
		ok  bool
	}
	results := make([]measurement, len(jobs))
	r.runCells(len(jobs), func(i int) {
		j := jobs[i]
		var total simtime.Duration
		for _, n := range j.ns {
			lat, ok := MeasureAlgorithm(model, cfg, j.k, j.algo, j.np, n, sp.Reps)
			if !ok {
				results[i] = measurement{}
				return
			}
			total += lat
		}
		results[i] = measurement{lat: total, ok: true}
	})

	// Reduce jobs to cells in deterministic (op, np, bucket) order;
	// within a cell the jobs appear in registration order, so a strict
	// less-than keeps the earlier registrant on ties.
	byCell := make(map[cellKey]*CellResult)
	var order []cellKey
	for i, j := range jobs {
		m := results[i]
		cell, seen := byCell[j.cellKey]
		if !seen {
			cell = &CellResult{Op: j.k, NP: j.np, MaxN: sp.Buckets[j.bi], Latency: map[string]simtime.Duration{}}
			byCell[j.cellKey] = cell
			order = append(order, j.cellKey)
		}
		if !m.ok {
			continue
		}
		cell.Latency[j.algo] = m.lat
		if cell.Winner == "" || m.lat < cell.Latency[cell.Winner] {
			cell.Winner = j.algo
		}
	}

	table := &core.DecisionTable{Transport: sp.Transport}
	var cells []CellResult
	for _, key := range order {
		cell := byCell[key]
		cells = append(cells, *cell)
		if cell.Winner == "" {
			return nil, nil, fmt.Errorf("bench: tune: no applicable algorithm for %s np=%d max_n=%d",
				cell.Op, cell.NP, cell.MaxN)
		}
		table.Entries = append(table.Entries, core.TableEntry{
			Op: cell.Op.String(), NP: cell.NP, MaxN: cell.MaxN, Algorithm: cell.Winner,
		})
	}
	if err := table.Validate(); err != nil {
		return nil, nil, err
	}
	return table, cells, nil
}
