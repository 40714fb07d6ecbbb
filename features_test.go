package sccsim_test

import (
	"errors"
	"fmt"
	"testing"

	sccsim "scc"
)

// feature is one façade option under a name; mk builds a fresh Option
// per System (fault plans carry firing state).
type feature struct {
	name string
	mk   func() sccsim.Option
}

func matrixFeatures() []feature {
	fs := []feature{}
	for _, s := range sccsim.Stacks() {
		s := s
		fs = append(fs, feature{"stack=" + s.String(), func() sccsim.Option { return sccsim.WithStack(s) }})
	}
	return append(fs,
		feature{"chips=2", func() sccsim.Option { return sccsim.WithChips(2) }},
		feature{"faults", func() sccsim.Option {
			// A transient stall: it perturbs timing but needs no recovery,
			// so it composes with every stack.
			return sccsim.WithFaults(sccsim.NewFaultPlan().Add(sccsim.Fault{
				Kind: sccsim.FaultCoreStall, Core: 1, Dur: sccsim.Microseconds(20),
			}))
		}},
		feature{"recovery", func() sccsim.Option { return sccsim.WithRecovery(sccsim.DefaultRecoveryPolicy()) }},
		feature{"selfheal", func() sccsim.Option { return sccsim.WithSelfHealing(sccsim.DefaultHealPolicy()) }},
		feature{"metrics", sccsim.WithMetrics},
		feature{"algorithm=tree", func() sccsim.Option { return sccsim.WithAlgorithm("tree") }},
		feature{"tuned", sccsim.WithTuned},
		feature{"topology=2x2x2", func() sccsim.Option { return sccsim.WithTopology(2, 2, 2) }},
		feature{"topology=invalid", func() sccsim.Option { return sccsim.WithTopology(0, 3, 2) }},
	)
}

// runBarrierAllreduce builds a System from opts and runs Barrier +
// Allreduce on it, checking every rank's sum. Any panic — in New, in
// Run, or inside the simulated program — comes back as an error that is
// not ErrInvalid.
func runBarrierAllreduce(opts ...sccsim.Option) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	sys := sccsim.New(opts...)
	n := sys.NumCores()
	want := float64(n*(n+1)) / 2
	sums := make([]float64, n) // disjoint per-rank slots
	rankErrs := make([]error, n)
	if err := sys.Run(func(r *sccsim.Rank) {
		src := r.AllocF64(1)
		dst := r.AllocF64(1)
		r.WriteF64s(src, []float64{float64(r.ID() + 1)})
		if rankErrs[r.ID()] = r.Barrier(); rankErrs[r.ID()] != nil {
			return
		}
		if rankErrs[r.ID()] = r.Allreduce(src, dst, 1); rankErrs[r.ID()] != nil {
			return
		}
		out := make([]float64, 1)
		r.ReadF64s(dst, out)
		sums[r.ID()] = out[0]
	}); err != nil {
		return err
	}
	if n == 0 {
		return errors.New("Run succeeded on a System with no cores")
	}
	for id := range sums {
		if rankErrs[id] != nil {
			return fmt.Errorf("rank %d: %w", id, rankErrs[id])
		}
		if sums[id] != want {
			return fmt.Errorf("rank %d: sum %v, want %v", id, sums[id], want)
		}
	}
	return nil
}

// TestFeatureMatrix: every pair of façade features either runs Barrier +
// Allreduce with correct sums on every rank or is refused with a typed
// error from Run — never a panic, never a wrong result, never an untyped
// failure.
func TestFeatureMatrix(t *testing.T) {
	fs := matrixFeatures()
	ran, refused := 0, 0
	for i, a := range fs {
		for _, b := range fs[i+1:] {
			err := runBarrierAllreduce(a.mk(), b.mk())
			switch {
			case err == nil:
				ran++
			case errors.Is(err, sccsim.ErrInvalid):
				refused++
			default:
				t.Errorf("%s + %s: %v", a.name, b.name, err)
			}
		}
	}
	t.Logf("%d pairs ran, %d were refused with ErrInvalid", ran, refused)
	if ran == 0 || refused == 0 {
		t.Errorf("matrix is vacuous: %d ran, %d refused", ran, refused)
	}
}

// tenCollectives calls every collective a Rank offers once, with the
// given count and root, and returns the ten errors by name.
func tenCollectives(r *sccsim.Rank, src, dst sccsim.Addr, n, root int) map[string]error {
	maxOp := func(a, b float64) float64 { return max(a, b) }
	return map[string]error{
		"Barrier":       r.Barrier(),
		"Allreduce":     r.Allreduce(src, dst, n),
		"AllreduceOp":   r.AllreduceOp(src, dst, n, maxOp),
		"Reduce":        r.Reduce(root, src, dst, n),
		"Broadcast":     r.Broadcast(root, dst, n),
		"Allgather":     r.Allgather(src, n, dst),
		"Alltoall":      r.Alltoall(src, dst, n),
		"ReduceScatter": r.ReduceScatter(src, dst, n),
		"Scatter":       r.Scatter(root, src, n, dst),
		"Gather":        r.Gather(root, src, n, dst),
		"Scan":          r.Scan(src, dst, n),
	}
}

// TestFeatureMatrixEveryCollective: the stack axis of the matrix times
// all ten Rank collectives. Every stack — the RCKMPI comparator through
// its adapter like the five core stacks through their context — returns
// the right data from each of them; Scan on RCKMPI, a root outside
// [0, N) and a negative count are ErrInvalid on every rank of every
// stack, with nothing simulated.
func TestFeatureMatrixEveryCollective(t *testing.T) {
	const k = 3 // elements per rank
	for _, st := range sccsim.Stacks() {
		sys := sccsim.New(sccsim.WithStack(st), sccsim.WithTopology(2, 2, 2))
		p := sys.NumCores()
		val := func(rank, i int) float64 { return float64(rank*1000 + i + 1) }
		fail := func(r *sccsim.Rank, format string, args ...any) {
			t.Errorf("%s rank %d: %s", st, r.ID(), fmt.Sprintf(format, args...))
		}
		err := sys.Run(func(r *sccsim.Rank) {
			me := r.ID()
			src, dst := r.AllocF64(p*k), r.AllocF64(p*k)
			in := make([]float64, p*k)
			for i := range in {
				in[i] = val(me, i)
			}
			got := make([]float64, p*k)
			// run stages the input, runs one collective and checks the
			// first n result elements on the ranks that hold a result.
			run := func(name string, call func() error, holds bool, n int, want func(i int) float64) {
				r.WriteF64s(src, in)
				r.WriteF64s(dst, make([]float64, p*k))
				if err := call(); err != nil {
					fail(r, "%s: %v", name, err)
					return
				}
				r.ReadF64s(dst, got)
				for i := 0; i < n && holds; i++ {
					if got[i] != want(i) {
						fail(r, "%s: element %d = %v, want %v", name, i, got[i], want(i))
						return
					}
				}
			}
			sum := func(i int) (s float64) {
				for q := 0; q < p; q++ {
					s += val(q, i)
				}
				return s
			}
			const root = 5
			run("Barrier", r.Barrier, false, 0, nil)
			run("Allreduce", func() error { return r.Allreduce(src, dst, k) }, true, k, sum)
			run("AllreduceOp", func() error {
				return r.AllreduceOp(src, dst, k, func(a, b float64) float64 { return max(a, b) })
			}, true, k, func(i int) float64 { return val(p-1, i) })
			run("Reduce", func() error { return r.Reduce(root, src, dst, k) }, me == root, k, sum)
			run("Broadcast", func() error {
				if me == root {
					r.WriteF64s(dst, in)
				}
				return r.Broadcast(root, dst, k)
			}, true, k, func(i int) float64 { return val(root, i) })
			run("Allgather", func() error { return r.Allgather(src, k, dst) }, true, p*k,
				func(i int) float64 { return val(i/k, i%k) })
			run("Alltoall", func() error { return r.Alltoall(src, dst, k) }, true, p*k,
				func(i int) float64 { return val(i/k, me*k+i%k) })
			// p*k elements split evenly under every partitioning: rank q
			// owns elements [q*k, (q+1)*k).
			run("ReduceScatter", func() error { return r.ReduceScatter(src, dst, p*k) }, true, k,
				func(i int) float64 { return sum(me*k + i) })
			run("Scatter", func() error { return r.Scatter(root, src, k, dst) }, true, k,
				func(i int) float64 { return val(root, me*k+i) })
			run("Gather", func() error { return r.Gather(root, src, k, dst) }, me == root, p*k,
				func(i int) float64 { return val(i/k, i%k) })
			if st == sccsim.StackRCKMPI {
				if err := r.Scan(src, dst, k); !errors.Is(err, sccsim.ErrInvalid) {
					fail(r, "Scan = %v, want ErrInvalid (not implemented by the comparator)", err)
				}
			} else {
				run("Scan", func() error { return r.Scan(src, dst, k) }, true, k, func(i int) (s float64) {
					for q := 0; q <= me; q++ {
						s += val(q, i)
					}
					return s
				})
			}

			t0 := r.Now()
			for name, err := range tenCollectives(r, src, dst, -1, 0) {
				if (name != "Barrier") != errors.Is(err, sccsim.ErrInvalid) {
					fail(r, "%s with a negative count = %v", name, err)
				}
			}
			barrier := r.Now() - t0
			t0 = r.Now()
			for _, bad := range []int{-1, p} {
				for name, call := range map[string]func() error{
					"Reduce":    func() error { return r.Reduce(bad, src, dst, k) },
					"Broadcast": func() error { return r.Broadcast(bad, dst, k) },
					"Scatter":   func() error { return r.Scatter(bad, src, k, dst) },
					"Gather":    func() error { return r.Gather(bad, src, k, dst) },
				} {
					if err := call(); !errors.Is(err, sccsim.ErrInvalid) {
						fail(r, "%s with root %d = %v, want ErrInvalid", name, bad, err)
					}
				}
			}
			if r.Now() != t0 || barrier <= 0 {
				fail(r, "rejected calls took %d ticks (the one valid Barrier %d)", r.Now()-t0, barrier)
			}
		})
		if err != nil {
			t.Errorf("%s: %v", st, err)
		}
	}
}

// TestEvictedRankIsRefusedEverything: a rank the membership agreement
// excluded keeps getting ErrEvicted — from the collective that was under
// way, from every later one in the same Run, and, through the healer the
// System keeps per core, from all ten in the next Run — while the
// survivors carry on among themselves. Rank 0 is made the odd one out by
// one extra (failed) collective call, which puts its call sequence ahead
// of everyone else's; when rank 17's death forces an agreement, rank 0
// roots the outcome vote and agreement round 1 but gathers no same-call
// arrival, so neither carries a view, and round 2's root, rank 1,
// carries the 46 same-call arrivals: a view without rank 0, which
// rank 0 finds behind the failed release. Were the verdict not kept, rank 0
// would get a full 48-core context again in the next Run and every
// collective would run into the survivors' new epoch until ErrNoQuorum.
func TestEvictedRankIsRefusedEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates seconds of virtual agreement timeouts")
	}
	const n, victim = 2048, 17
	sys := sccsim.New(sccsim.WithStack(sccsim.StackLightweight),
		sccsim.WithSelfHealing(sccsim.DefaultHealPolicy()),
		sccsim.WithFaults(sccsim.NewFaultPlan().Add(sccsim.Fault{
			Kind: sccsim.FaultCoreDie, Core: victim, At: sccsim.Microseconds(400),
		})))
	p := sys.NumCores()
	first, second := make([]error, p), make([]error, p)
	sums := make([]float64, p)
	if err := sys.Run(func(r *sccsim.Rank) {
		src, dst := r.AllocF64(n), r.AllocF64(n)
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		r.WriteF64s(src, ones)
		if r.ID() == 0 {
			if err := r.Reduce(-1, src, dst, n); !errors.Is(err, sccsim.ErrInvalid) {
				t.Errorf("rank 0: Reduce(root -1) = %v", err)
			}
		}
		first[r.ID()] = r.Allreduce(src, dst, n)
		second[r.ID()] = r.Allreduce(src, dst, n)
		out := make([]float64, 1)
		r.ReadF64s(dst, out)
		sums[r.ID()] = out[0]
	}); err != nil && !errors.Is(err, sccsim.ErrCoreDead) {
		t.Fatal(err)
	}
	for id := 1; id < p; id++ {
		if id != victim && (first[id] != nil || second[id] != nil || sums[id] != float64(p-2)) {
			t.Fatalf("survivor %d: %v, %v, sum %v (want %d)", id, first[id], second[id], sums[id], p-2)
		}
	}
	if !errors.Is(first[0], sccsim.ErrEvicted) || !errors.Is(second[0], sccsim.ErrEvicted) {
		t.Fatalf("rank 0 in the Run of its eviction: %v, then %v; want ErrEvicted twice", first[0], second[0])
	}

	t0 := sys.Elapsed()
	if err := sys.Run(func(r *sccsim.Rank) {
		src, dst := r.AllocF64(4), r.AllocF64(4*p)
		for name, err := range tenCollectives(r, src, dst, 1, 1) {
			if r.ID() == 0 && !errors.Is(err, sccsim.ErrEvicted) {
				t.Errorf("evicted rank 0: %s = %v, want ErrEvicted", name, err)
			}
			if r.ID() != 0 && err != nil {
				t.Errorf("survivor %d: %s: %v", r.ID(), name, err)
			}
		}
		if r.ID() == 0 && r.HealReport() != nil {
			t.Error("evicted rank 0 reports healing activity without a context")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if rep := sys.Heal(); rep.Evicted != 2 || rep.Reconfigs != 1 {
		t.Errorf("system report: %+v, want 2 evicted in 1 reconfiguration", *rep)
	}
	// Ten healthy collectives among 46 ranks, not one agreement timeout.
	if d := sys.Elapsed() - t0; d > sccsim.Microseconds(100_000) {
		t.Errorf("second Run took %v", d)
	}
}

// TestInvalidOptionsYieldInertSystem: New keeps its signature, so a
// System built from options that describe no buildable system carries
// the typed error instead: every accessor returns a zero value and
// Run/RunResult return the error without simulating anything.
func TestInvalidOptionsYieldInertSystem(t *testing.T) {
	for name, opts := range map[string][]sccsim.Option{
		"impossible geometry": {sccsim.WithTopology(3, -1, 2)},
		"nil model":           {sccsim.WithModel(nil), sccsim.WithHardwareBugFixed()},
		"chips + metrics":     {sccsim.WithChips(2), sccsim.WithMetrics()},
		"chips + faults":      {sccsim.WithChips(4), sccsim.WithFaults(sccsim.NewFaultPlan())},
		"chips + self-heal":   {sccsim.WithChips(2), sccsim.WithSelfHealing(sccsim.DefaultHealPolicy())},
		"chips + RCKMPI":      {sccsim.WithChips(2), sccsim.WithStack(sccsim.StackRCKMPI)},
		"unknown stack":       {sccsim.WithStack(42)},
		"negative stack":      {sccsim.WithStack(-1)},
	} {
		sys := sccsim.New(opts...)
		if sys.NumCores() != 0 || sys.Chips() != 0 || sys.Model() != nil || sys.Elapsed() != 0 ||
			sys.Metrics() != nil || sys.Heal() != nil {
			t.Errorf("%s: accessors of an invalid System are not zero", name)
		}
		ranProgram := false
		err := sys.Run(func(*sccsim.Rank) { ranProgram = true })
		if !errors.Is(err, sccsim.ErrInvalid) || ranProgram {
			t.Errorf("%s: Run = %v (program ran: %v), want ErrInvalid and no simulation", name, err, ranProgram)
		}
		res, err := sys.RunResult(func(*sccsim.Rank) { ranProgram = true })
		if !errors.Is(err, sccsim.ErrInvalid) || ranProgram || res == nil || res.Elapsed() != 0 {
			t.Errorf("%s: RunResult = %v, %v", name, res, err)
		}
	}
}
