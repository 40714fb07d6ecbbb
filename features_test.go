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
		feature{"intra=ring", func() sccsim.Option { return sccsim.WithIntraAlgorithm("ring") }},
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
		"chips + bad intra":   {sccsim.WithChips(2), sccsim.WithIntraAlgorithm("no-such-algorithm")},
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
