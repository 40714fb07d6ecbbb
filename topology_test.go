package sccsim_test

import (
	"errors"
	"sync"
	"testing"

	sccsim "scc"
	"scc/internal/simtime"
)

// Façade-level topology tests: arbitrary meshes and multi-chip systems
// through the public API only.

// TestTopologyFacadeAllreduce: a non-default mesh runs every public
// collective path end-to-end with the exact all-ranks sum.
func TestTopologyFacadeAllreduce(t *testing.T) {
	for _, g := range []struct{ rows, cols, per int }{
		{4, 4, 1},
		{8, 8, 2},
	} {
		sys := sccsim.New(sccsim.WithTopology(g.rows, g.cols, g.per))
		cores := g.rows * g.cols * g.per
		if sys.NumCores() != cores {
			t.Fatalf("%dx%dx%d: NumCores = %d, want %d", g.rows, g.cols, g.per, sys.NumCores(), cores)
		}
		want := 0.0
		for id := 0; id < cores; id++ {
			want += float64(id + 1)
		}
		var mu sync.Mutex
		vals := make(map[int]float64)
		err := sys.Run(func(r *sccsim.Rank) {
			if r.N() != cores {
				t.Errorf("rank %d: N() = %d, want %d", r.ID(), r.N(), cores)
			}
			src := r.AllocF64(1)
			dst := r.AllocF64(1)
			r.WriteF64s(src, []float64{float64(r.ID() + 1)})
			if err := r.Allreduce(src, dst, 1); err != nil {
				t.Errorf("rank %d: %v", r.ID(), err)
				return
			}
			out := make([]float64, 1)
			r.ReadF64s(dst, out)
			mu.Lock()
			vals[r.ID()] = out[0]
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("%dx%dx%d: %v", g.rows, g.cols, g.per, err)
		}
		for id := 0; id < cores; id++ {
			if vals[id] != want {
				t.Errorf("%dx%dx%d rank %d: sum = %v, want %v", g.rows, g.cols, g.per, id, vals[id], want)
			}
		}
	}
}

// TestHierarchicalFacadeAllreduce: a 2-chip system through the façade
// computes the global sum on all 96 ranks, reports global IDs and chip
// placement, types cross-chip-unsupported collectives, and is
// bit-identical across two same-configuration runs.
func TestHierarchicalFacadeAllreduce(t *testing.T) {
	run := func() (map[int]float64, map[int]int, sccsim.Duration) {
		sys := sccsim.New(sccsim.WithChips(2), sccsim.WithAlgorithm("ring"))
		if got := sys.Chips(); got != 2 {
			t.Fatalf("Chips() = %d, want 2", got)
		}
		total := sys.NumCores()
		if total != 96 {
			t.Fatalf("NumCores() = %d, want 96", total)
		}
		var mu sync.Mutex
		vals := make(map[int]float64)
		chips := make(map[int]int)
		res, err := sys.RunResult(func(r *sccsim.Rank) {
			perChip := total / 2
			if want := r.ID() / perChip; r.Chip() != want {
				t.Errorf("rank %d: Chip() = %d, want %d", r.ID(), r.Chip(), want)
			}
			src := r.AllocF64(4)
			dst := r.AllocF64(4)
			v := []float64{float64(r.ID() + 1), 1, 2, 3}
			r.WriteF64s(src, v)
			if err := r.Allreduce(src, dst, 4); err != nil {
				t.Errorf("rank %d: Allreduce: %v", r.ID(), err)
				return
			}
			// Collectives without a hierarchical form must fail typed.
			if err := r.Alltoall(src, dst, 1); !errors.Is(err, sccsim.ErrCrossChip) {
				t.Errorf("rank %d: Alltoall = %v, want ErrCrossChip", r.ID(), err)
			}
			if err := r.Barrier(); err != nil {
				t.Errorf("rank %d: Barrier: %v", r.ID(), err)
			}
			out := make([]float64, 1)
			r.ReadF64s(dst, out)
			mu.Lock()
			vals[r.ID()] = out[0]
			chips[r.ID()] = r.Chip()
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		return vals, chips, res.Elapsed()
	}

	vals1, chips, t1 := run()
	vals2, _, t2 := run()

	want := 0.0
	for id := 0; id < 96; id++ {
		want += float64(id + 1)
	}
	for id := 0; id < 96; id++ {
		if vals1[id] != want {
			t.Errorf("rank %d: sum = %v, want %v", id, vals1[id], want)
		}
		if vals1[id] != vals2[id] {
			t.Errorf("rank %d: nondeterministic across identical runs: %v vs %v", id, vals1[id], vals2[id])
		}
	}
	if t1 != t2 {
		t.Errorf("elapsed differs across identical runs: %d vs %d", t1, t2)
	}
	if chips[0] != 0 || chips[95] != 1 {
		t.Errorf("chip placement wrong: rank 0 on chip %d, rank 95 on chip %d", chips[0], chips[95])
	}
}

// TestTopologySelfHealKill: self-healing on non-default meshes — a
// mid-run core death on a 16-core and a 128-core chip must end with
// every completing survivor holding the survivor-group sum.
func TestTopologySelfHealKill(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, g := range []struct {
		rows, cols, per, victim int
	}{
		{4, 4, 1, 9},
		{8, 8, 2, 77},
	} {
		cores := g.rows * g.cols * g.per
		plan := sccsim.NewFaultPlan()
		plan.Add(sccsim.Fault{
			Kind: sccsim.FaultCoreDie,
			At:   simtime.Time(sccsim.Microseconds(400)),
			Core: g.victim,
		})
		sys := sccsim.New(
			sccsim.WithTopology(g.rows, g.cols, g.per),
			sccsim.WithFaults(plan),
			sccsim.WithSelfHealing(sccsim.DefaultHealPolicy()),
		)
		const n, reps = 1024, 4
		var mu sync.Mutex
		vals := make(map[int]float64)
		errs := make(map[int]error)
		err := sys.Run(func(r *sccsim.Rank) {
			src := r.AllocF64(n)
			dst := r.AllocF64(n)
			buf := make([]float64, n)
			for i := range buf {
				buf[i] = float64(r.ID() + 1)
			}
			r.WriteF64s(src, buf)
			var rerr error
			for k := 0; k < reps && rerr == nil; k++ {
				rerr = r.Allreduce(src, dst, n)
			}
			out := make([]float64, 1)
			r.ReadF64s(dst, out)
			mu.Lock()
			vals[r.ID()] = out[0]
			errs[r.ID()] = rerr
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("%dx%dx%d: run failed: %v", g.rows, g.cols, g.per, err)
		}
		want := 0.0
		for id := 0; id < cores; id++ {
			if id != g.victim {
				want += float64(id + 1)
			}
		}
		completed := 0
		for id := 0; id < cores; id++ {
			if id == g.victim {
				continue
			}
			if err := errs[id]; err != nil {
				if !errors.Is(err, sccsim.ErrUnreachable) &&
					!errors.Is(err, sccsim.ErrEvicted) &&
					!errors.Is(err, sccsim.ErrNoQuorum) &&
					!errors.Is(err, sccsim.ErrHealGiveUp) {
					t.Fatalf("%dx%dx%d core %d: untyped error: %v", g.rows, g.cols, g.per, id, err)
				}
				continue
			}
			completed++
			if vals[id] != want {
				t.Errorf("%dx%dx%d core %d: dst = %v, want survivor sum %v",
					g.rows, g.cols, g.per, id, vals[id], want)
			}
		}
		if completed < cores/2+1 {
			t.Fatalf("%dx%dx%d: only %d cores completed, want a majority", g.rows, g.cols, g.per, completed)
		}
	}
}
