package sccsim_test

import (
	"errors"
	"testing"

	sccsim "scc"
)

// runAllreduce executes one warm allreduce of n doubles on sys and
// returns the elapsed virtual time plus rank 0's first result element.
func runAllreduce(t *testing.T, sys *sccsim.System, n int) (sccsim.Duration, float64) {
	t.Helper()
	var first float64
	start := sys.Elapsed()
	err := sys.Run(func(r *sccsim.Rank) {
		src := r.AllocF64(n)
		dst := r.AllocF64(n)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(r.ID() + 1)
		}
		r.WriteF64s(src, v)
		if err := r.Allreduce(src, dst, n); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		if r.ID() == 0 {
			out := make([]float64, n)
			r.ReadF64s(dst, out)
			first = out[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys.Elapsed() - start, first
}

// TestWithAlgorithmPinsRegistryChoice: pinning the naive linear
// baseline must still be correct but take observably longer than the
// default heuristic — proof the option reaches the dispatcher.
func TestWithAlgorithmPinsRegistryChoice(t *testing.T) {
	const n = 552
	wantSum := 0.0
	for id := 1; id <= 48; id++ {
		wantSum += float64(id)
	}

	latDefault, sum := runAllreduce(t, sccsim.New(), n)
	if sum != wantSum {
		t.Fatalf("default allreduce sum = %v, want %v", sum, wantSum)
	}
	latLinear, sum := runAllreduce(t, sccsim.New(sccsim.WithAlgorithm("linear")), n)
	if sum != wantSum {
		t.Fatalf("pinned allreduce sum = %v, want %v", sum, wantSum)
	}
	if float64(latLinear) < 2*float64(latDefault) {
		t.Errorf("WithAlgorithm(linear) should be much slower than the heuristic, got %v vs %v",
			latLinear, latDefault)
	}
}

// TestWithAlgorithmUnknownNameIsInvalid: a name that no collective
// registers (a typo, or the dispatched-not-registered "hier") is an
// invalid option, not a silent run of the paper heuristic. A name
// registered for Allreduce only still runs a Broadcast, through the
// per-call fallback.
func TestWithAlgorithmUnknownNameIsInvalid(t *testing.T) {
	for name, opt := range map[string]sccsim.Option{
		`WithAlgorithm("rign")`:       sccsim.WithAlgorithm("rign"),
		`WithAlgorithm("hier")`:       sccsim.WithAlgorithm("hier"),
		`WithSelector(Fixed("rign"))`: sccsim.WithSelector(sccsim.Fixed("rign")),
	} {
		ran := false
		err := sccsim.New(opt).Run(func(*sccsim.Rank) { ran = true })
		if !errors.Is(err, sccsim.ErrInvalid) || ran {
			t.Errorf("%s: Run = %v (program ran: %v), want ErrInvalid", name, err, ran)
		}
	}
	const n = 64
	got := make([]float64, 48)
	err := sccsim.New(sccsim.WithAlgorithm("recdouble")).Run(func(r *sccsim.Rank) {
		buf := r.AllocF64(n)
		if r.ID() == 0 {
			v := make([]float64, n)
			for i := range v {
				v[i] = 7
			}
			r.WriteF64s(buf, v)
		}
		if err := r.Broadcast(0, buf, n); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		out := make([]float64, n)
		r.ReadF64s(buf, out)
		got[r.ID()] = out[n-1]
	})
	if err != nil {
		t.Fatalf(`WithAlgorithm("recdouble") Broadcast: %v`, err)
	}
	for id, v := range got {
		if v != 7 {
			t.Fatalf("rank %d received %v, want 7", id, v)
		}
	}
}

// TestWithTunedNeverLoses: the tuned selector must not regress against
// the default heuristic on either side of the short-message threshold.
func TestWithTunedNeverLoses(t *testing.T) {
	for _, n := range []int{16, 552} {
		latDefault, _ := runAllreduce(t, sccsim.New(), n)
		latTuned, _ := runAllreduce(t, sccsim.New(sccsim.WithTuned()), n)
		if latTuned > latDefault {
			t.Errorf("n=%d: WithTuned %v slower than default %v", n, latTuned, latDefault)
		}
	}
}

func TestAlgorithmNames(t *testing.T) {
	names := sccsim.AlgorithmNames("allreduce")
	if len(names) == 0 || names[0] != "ring" {
		t.Fatalf("AlgorithmNames(allreduce) = %v, want ring first", names)
	}
	if got := sccsim.AlgorithmNames("frobnicate"); got != nil {
		t.Fatalf("AlgorithmNames(frobnicate) = %v, want nil", got)
	}
	// WithSelector with an explicit policy compiles and runs.
	if _, sum := runAllreduce(t, sccsim.New(sccsim.WithSelector(sccsim.Fixed("recdouble"))), 16); sum == 0 {
		t.Fatal("WithSelector(Fixed) produced no result")
	}
}
