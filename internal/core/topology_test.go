package core

import (
	"errors"
	"testing"

	"scc/internal/fabric"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// Topology and hierarchy tests: the cross-algorithm equivalence
// property must hold on any mesh geometry, and the multi-chip
// hierarchical composition must compute the same bits as a flat
// sequential reference for every registered intra-chip algorithm,
// deterministically.

// TestTopologyCrossAlgorithmEquivalence re-runs the cross-algorithm
// bit-equivalence sweep on non-default geometries: a 4x4 mesh of
// single-core tiles (16 cores, one flag line) and an 8x8 mesh of
// dual-core tiles (128 cores, two flag lines and a grown MPB).
func TestTopologyCrossAlgorithmEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, g := range []struct{ rows, cols, per int }{
		{4, 4, 1},
		{8, 8, 2},
	} {
		model := timing.Topology(g.rows, g.cols, g.per)
		cores := model.NumCores()
		root := cores/2 + 1 // off-gateway, off-center
		for _, k := range OpKinds() {
			for _, algo := range AlgorithmNames(k) {
				for _, n := range []int{3, 64} {
					in := dyadicInputs(int64(100000*g.rows*g.per+1000*int(k)+n), cores, n)
					want := reference(k, root, cores, in)

					now1, got1 := crossRun(t, model, k, algo, n, root, in)
					now2, got2 := crossRun(t, model, k, algo, n, root, in)

					if now1 != now2 {
						t.Errorf("%dx%dx%d %s[%s] n=%d: nondeterministic virtual time %v vs %v",
							g.rows, g.cols, g.per, k, algo, n, now1, now2)
					}
					if !sameResults(got1, got2) {
						t.Errorf("%dx%dx%d %s[%s] n=%d: nondeterministic results across identical runs",
							g.rows, g.cols, g.per, k, algo, n)
					}
					for c := range want {
						if want[c] == nil {
							continue
						}
						if got1[c] == nil {
							t.Errorf("%dx%dx%d %s[%s] n=%d: core %d missing result",
								g.rows, g.cols, g.per, k, algo, n, c)
							continue
						}
						for i := range want[c] {
							if got1[c][i] != want[c][i] {
								t.Errorf("%dx%dx%d %s[%s] n=%d: core %d elem %d = %v, want %v (bit-exact)",
									g.rows, g.cols, g.per, k, algo, n, c, i, got1[c][i], want[c][i])
								break
							}
						}
					}
				}
			}
		}
	}
}

// hierRun executes one collective across a multi-chip system with the
// intra-chip algorithm pinned through the selector and returns the
// final virtual time plus per-global-rank results.
func hierRun(t *testing.T, model *timing.Model, chips int, intra string, k OpKind, n, root int, in [][]float64) (simtime.Time, [][]float64) {
	t.Helper()
	sys := fabric.New(model, chips)
	perChip := model.NumCores()
	results := make([][]float64, chips*perChip)
	cfg := ConfigBalanced
	cfg.Selector = Fixed(intra)
	for ci := 0; ci < chips; ci++ {
		ci := ci
		comm := rcce.NewComm(sys.Chips[ci])
		port := sys.Port(ci)
		sys.Chips[ci].Launch(func(c *scc.Core) {
			gid := ci*perChip + c.ID
			x, err := NewCtxWith(comm.UE(c.ID), cfg, CtxOpts{Port: port})
			if err != nil {
				t.Errorf("chip %d core %d: NewCtxWith: %v", ci, c.ID, err)
				return
			}
			src := c.AllocF64(n)
			dst := c.AllocF64(n)
			c.WriteF64s(src, in[gid])
			switch k {
			case KindAllreduce:
				err = x.Allreduce(src, dst, n, Sum)
			case KindBroadcast:
				err = x.Broadcast(root, src, n)
				dst = src
			default:
				t.Errorf("hierRun does not support %s", k)
				return
			}
			if err != nil {
				t.Errorf("%s[hier/%s] n=%d rank %d: %v", k, intra, n, gid, err)
				return
			}
			got := make([]float64, n)
			c.ReadF64s(dst, got)
			results[gid] = got
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("%s[hier/%s] n=%d: %v", k, intra, n, err)
	}
	return sys.Engine.Now(), results
}

// TestHierarchicalAllreduceMatchesFlat: a 2-chip hierarchical Allreduce
// must produce the flat sequential sum on every rank, bit-exactly, for
// every registered allreduce algorithm as the intra-chip phase, and be
// deterministic in both values and virtual time.
func TestHierarchicalAllreduceMatchesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const chips = 2
	model := timing.Default()
	total := chips * model.NumCores()
	for _, intra := range AlgorithmNames(KindAllreduce) {
		for _, n := range []int{1, 160} {
			in := dyadicInputs(int64(7000+n), total, n)
			want := reference(KindAllreduce, 0, total, in)

			now1, got1 := hierRun(t, model, chips, intra, KindAllreduce, n, 0, in)
			now2, got2 := hierRun(t, model, chips, intra, KindAllreduce, n, 0, in)

			if now1 != now2 {
				t.Errorf("hier/%s n=%d: nondeterministic virtual time %v vs %v", intra, n, now1, now2)
			}
			if !sameResults(got1, got2) {
				t.Errorf("hier/%s n=%d: nondeterministic results across identical runs", intra, n)
			}
			for r := range want {
				if got1[r] == nil {
					t.Errorf("hier/%s n=%d: rank %d missing result", intra, n, r)
					continue
				}
				for i := range want[r] {
					if got1[r][i] != want[r][i] {
						t.Errorf("hier/%s n=%d: rank %d elem %d = %v, want %v (bit-exact)",
							intra, n, r, i, got1[r][i], want[r][i])
						break
					}
				}
			}
		}
	}
}

// TestHierarchicalBroadcastRemoteRoot: a global root living on a
// non-hub chip must reach every rank of every chip.
func TestHierarchicalBroadcastRemoteRoot(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const chips = 3
	model := timing.Default()
	total := chips * model.NumCores()
	root := model.NumCores() + 7 // chip 1, local rank 7
	n := 48
	in := dyadicInputs(9001, total, n)
	want := reference(KindBroadcast, root, total, in)
	_, got := hierRun(t, model, chips, "tree", KindBroadcast, n, root, in)
	for r := range want {
		if got[r] == nil {
			t.Fatalf("rank %d missing result", r)
		}
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("rank %d elem %d = %v, want %v", r, i, got[r][i], want[r][i])
			}
		}
	}
}

// TestHierarchicalBarrierAndCrossChipTyped: the multi-chip Barrier
// completes (no rank proceeds before the last arrives, enforced by the
// token exchange), and the collectives without a hierarchical
// implementation fail with the typed ErrCrossChip instead of silently
// running chip-local.
func TestHierarchicalBarrierAndCrossChipTyped(t *testing.T) {
	const chips = 2
	model := timing.Default()
	sys := fabric.New(model, chips)
	for ci := 0; ci < chips; ci++ {
		ci := ci
		comm := rcce.NewComm(sys.Chips[ci])
		port := sys.Port(ci)
		sys.Chips[ci].Launch(func(c *scc.Core) {
			x, err := NewCtxWith(comm.UE(c.ID), ConfigBalanced, CtxOpts{Port: port})
			if err != nil {
				t.Errorf("chip %d core %d: %v", ci, c.ID, err)
				return
			}
			if err := x.Barrier(); err != nil {
				t.Errorf("chip %d core %d: Barrier: %v", ci, c.ID, err)
			}
			src := c.AllocF64(8)
			dst := c.AllocF64(8)
			if err := x.Reduce(0, src, dst, 8, Sum); !errors.Is(err, ErrCrossChip) {
				t.Errorf("chip %d core %d: Reduce = %v, want ErrCrossChip", ci, c.ID, err)
			}
			if err := x.Allgather(src, 4, dst); !errors.Is(err, ErrCrossChip) {
				t.Errorf("chip %d core %d: Allgather = %v, want ErrCrossChip", ci, c.ID, err)
			}
			// The typed error must also satisfy ErrInvalid for callers
			// filtering on the coarse class.
			if err := x.Barrier(); err != nil {
				t.Errorf("chip %d core %d: second Barrier: %v", ci, c.ID, err)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("system run: %v", err)
	}
	if !errors.Is(ErrCrossChip, ErrInvalid) {
		t.Error("ErrCrossChip must wrap ErrInvalid")
	}
}
