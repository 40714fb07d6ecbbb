package bench

import (
	"errors"
	"math"
	"sync"

	"scc/internal/core"
	"scc/internal/fabric"
	"scc/internal/fault"
	"scc/internal/metrics"
	"scc/internal/rcce"
	"scc/internal/rckmpi"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
	"scc/internal/trace"
)

// This file holds the two bodies behind every virtual-time measurement
// of the package. program is the paper's methodology — barrier, one
// warm-up, timed repetitions read on rank 0 — and every Measure*
// function is argument marshalling around it. checkedAllreduce is the
// one-shot Allreduce of the robustness figures, whose result every core
// verifies. Both build their system through fabric.New, so a set-up
// change is made here once.
//
// Fences: the cache model sees private-memory addresses, so the order
// and sizes of the AllocF64 calls (src, then dst, at the op's extents,
// then whatever scratch the context allocates on first use) and the fill
// patterns are measured behaviour — the digests of
// testdata/scheduler_equiv.json move if they do. And a sweep runs tens
// of thousands of core programs, so nothing here allocates per core
// beyond the rank's own handle: staging vectors are pooled, and the
// per-measurement callbacks take values instead of being per-core
// closures.

// stagePool recycles the per-core host-side staging vectors across
// measurements (48 per chip otherwise). sync.Pool keeps it safe under
// the parallel runner's worker pool.
var stagePool = sync.Pool{New: func() any { return new([]float64) }}

// getStage returns a pooled vector of length n; return it with putStage.
func getStage(n int) *[]float64 {
	vp := stagePool.Get().(*[]float64)
	if cap(*vp) < n {
		*vp = make([]float64, n)
	}
	*vp = (*vp)[:n]
	return vp
}

func putStage(vp *[]float64) { stagePool.Put(vp) }

// extents returns the doubles per rank that op reads from src and writes
// to dst at n doubles over np ranks.
func extents(op Op, n, np int) (srcN, dstN int) {
	switch op {
	case OpAllgather:
		return n, n * np
	case OpAlltoall:
		return n * np, n * np
	}
	return n, n
}

// stageInput allocates the src buffer of srcN doubles and the dst buffer
// of dstN, in that order, and fills src with first, first+step, ...
func stageInput(c *scc.Core, srcN, dstN int, first, step float64) (src, dst scc.Addr) {
	src = c.AllocF64(srcN)
	dst = c.AllocF64(dstN)
	vp := getStage(srcN)
	v := *vp
	for i := range v {
		v[i] = first + float64(i)*step
	}
	c.WriteF64s(src, v)
	putStage(vp) // staged into simulated memory; the host copy is done
	return src, dst
}

// runOp executes one collective of n doubles per rank on stack x.
func runOp(x core.Collectives, op Op, src, dst scc.Addr, n int) error {
	switch op {
	case OpAllgather:
		return x.Allgather(src, n, dst)
	case OpAlltoall:
		return x.Alltoall(src, dst, n)
	case OpReduceScatter:
		_, err := x.ReduceScatter(src, dst, n, core.Sum)
		return err
	case OpBroadcast:
		return x.Broadcast(0, src, n)
	case OpReduce:
		return x.Reduce(0, src, dst, n, core.Sum)
	case OpAllreduce:
		return x.Allreduce(src, dst, n, core.Sum)
	default:
		panic("bench: unknown op " + string(op))
	}
}

// errNotApplicable is what a program's ctx function returns when the
// algorithm under test cannot run on the communicator. Applicability
// depends only on group and configuration, so every member takes the
// same early exit and the run ends cleanly.
var errNotApplicable = errors.New("bench: algorithm not applicable on this communicator")

// program is one measurement: a collective timed with the paper's
// methodology on a fresh system. The zero values mean the plain case
// (one chip, every core, no observers). A value is good for one run: it
// also carries what rank 0 recorded.
type program struct {
	model *timing.Model
	chips int // fabric size; <= 1 is the single chip
	np    int // cores 0..np-1 of every chip take part, the rest idle; 0 = all
	reps  int // timed repetitions (< 1 = 1)

	op Op  // the collective under test; extents sizes its buffers
	n  int // its vector size in doubles per rank

	// rckmpi runs op through the MPI comparator; otherwise ctx builds the
	// core's collectives context. An error from ctx ends that core's
	// program, and run returns the one rank 0 got.
	rckmpi bool
	ctx    func(sys *fabric.System, chip int, ue *rcce.UE) (*core.Ctx, error)
	// direct, when set, replaces the dispatch of op through the context:
	// the synthesis sweep invokes an unregistered schedule.
	direct func(x *core.Ctx, src, dst scc.Addr) error
	// ueBarrier separates the repetitions with the native RCCE barrier
	// whatever the stack under test (Measure, like the paper's harness).
	// The group- and fabric-scoped measurements need the context's own
	// barrier, which knows the members and the chips.
	ueBarrier bool

	// metrics and spans, when set, observe chip 0 (single-chip only).
	metrics *metrics.Registry
	spans   *trace.Recorder

	total  simtime.Duration // rank 0's timed repetitions, summed
	ctxErr error            // rank 0's error from ctx
}

// run executes the program on a fresh system and returns the average
// latency of the timed repetitions as seen by rank 0 (chip 0, core 0).
// The first, cache-cold execution is a warm-up and excluded.
func (pr *program) run() (simtime.Duration, error) {
	sys := fabric.New(pr.model, max(pr.chips, 1))
	defer sys.Release()
	return pr.runOn(sys)
}

// runOn is run on a system the caller built (and can inspect afterwards).
func (pr *program) runOn(sys *fabric.System) (simtime.Duration, error) {
	reps := max(pr.reps, 1)
	np := pr.np
	if np == 0 {
		np = pr.model.NumCores()
	}
	if pr.metrics != nil {
		sys.Chips[0].SetMetrics(pr.metrics)
	}
	sys.Launch(func(chip int, c *scc.Core) {
		if c.ID >= np {
			return // idle spectator outside the communicator
		}
		if pr.spans != nil {
			c.SetSpanRecorder(pr.spans.Hook(c.ID))
		}
		records := chip == 0 && c.ID == 0
		ue := sys.Comms[chip].UE(c.ID)
		var x *core.Ctx
		var stack core.Collectives
		if pr.rckmpi {
			stack = rckmpi.New(ue)
		} else {
			var err error
			if x, err = pr.ctx(sys, chip, ue); err != nil {
				if records {
					pr.ctxErr = err
				}
				return
			}
			stack = x
		}
		srcN, dstN := extents(pr.op, pr.n, np)
		src, dst := stageInput(c, srcN, dstN, float64(c.ID), 0.001)
		// Repetition -1 is the warm-up: first touch of all buffers. A
		// failing barrier or operation fails the run (a panic in a
		// simulated process surfaces as the run's error) rather than
		// time something that did not happen.
		for r := -1; r < reps; r++ {
			if pr.ueBarrier {
				ue.Barrier()
			} else if err := stack.Barrier(); err != nil {
				panic(err)
			}
			var t0 simtime.Time
			if r >= 0 {
				t0 = c.Now()
			}
			var err error
			if pr.direct != nil {
				err = pr.direct(x, src, dst)
			} else {
				err = runOp(stack, pr.op, src, dst, pr.n)
			}
			if err != nil {
				panic(err)
			}
			if r >= 0 && records {
				pr.total += c.Now() - t0
			}
		}
		if x != nil {
			x.Release()
		}
	})
	if err := sys.Run(); err != nil {
		return 0, err
	}
	if pr.ctxErr != nil {
		return 0, pr.ctxErr
	}
	return pr.total / simtime.Time(reps), nil
}

// prefixGroup returns the communicator of cores 0..np-1 on a chip of
// numCores cores, or nil when that is the whole chip.
func prefixGroup(np, numCores int) (*core.Group, error) {
	if np >= numCores {
		return nil, nil
	}
	members := make([]int, np)
	for i := range members {
		members[i] = i
	}
	return core.NewGroup(members, numCores)
}

// allreduceOutcome is what one core of checkedAllreduce hands to the
// measurement's accounting once its Allreduce returned.
type allreduceOutcome struct {
	x   *core.Ctx
	dst scc.Addr
	err error
}

// holds reads the core's result — a priced read, like a real program
// checking its data, so it is part of the measured run — and reports
// whether it equals want.
func (o allreduceOutcome) holds(want []float64) bool {
	gp := getStage(len(want))
	defer putStage(gp)
	got := *gp
	o.x.UE().Core().ReadF64s(o.dst, got)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// allreduceWant is the sum checkedAllreduce's fill pattern yields over
// cores 0..p-1, leaving out core without (-1 = nobody).
func allreduceWant(p, n, without int) []float64 {
	want := make([]float64, n)
	for id := 0; id < p; id++ {
		if id == without {
			continue
		}
		for i := range want {
			want[i] += float64(id+1) + float64(i)*0.5
		}
	}
	return want
}

// checkedAllreduce runs one Allreduce of n doubles on a fresh chip under
// plan (nil = fault-free) over group (nil = every core; otherwise the
// members only, the rest sit out) and calls outcome on every core whose
// Allreduce returned — a core that died mid-run never reports. It
// returns the completion time of the whole run and the run's error (a
// deadlock under the hardened protocols is a bug the caller must count,
// not hide).
func checkedAllreduce(model *timing.Model, cfg core.Config, plan *fault.Plan, group *core.Group, n int, outcome func(allreduceOutcome)) (simtime.Duration, error) {
	sys := fabric.New(model, 1)
	defer sys.Release()
	if plan != nil {
		fault.Install(sys.Chips[0], plan)
	}
	sys.Launch(func(_ int, c *scc.Core) {
		if group != nil && !group.Contains(c.ID) {
			return
		}
		x, err := core.NewCtxWith(sys.Comms[0].UE(c.ID), cfg, core.CtxOpts{Group: group})
		if err != nil {
			panic(err) // c is a member; cannot fail
		}
		src, dst := stageInput(c, n, n, float64(c.ID+1), 0.5)
		outcome(allreduceOutcome{x: x, dst: dst, err: x.Allreduce(src, dst, n, core.Sum)})
	})
	err := sys.Run()
	return simtime.Duration(sys.Now()), err
}

// hardenedConfig is the configuration of the robustness figures: the
// given transport, balanced partitioning, the Allreduce optionally
// pinned to a registry algorithm ("" = the paper heuristic; an algorithm
// that is inapplicable under the hardened protocol, like "mpb", falls
// back to it, as everywhere else).
func hardenedConfig(kind core.TransportKind, algo string) core.Config {
	cfg := core.Config{Transport: kind, Balanced: true}
	if algo != "" {
		cfg.Selector = core.Fixed(algo)
	}
	return cfg
}
