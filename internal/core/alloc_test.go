package core_test

import (
	"fmt"
	"testing"

	"scc/internal/core"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

// Per-algorithm steady-state allocation budget for a full 48-core
// Allreduce at the paper's application size. One full chip run cannot be
// repeated, so the per-op cost is the slope between a short and a long
// repetition loop inside one program; chip, comm, and Ctx construction
// plus all first-use scratch warming cancel out.

func runAllreduceOps(algo string, ops, n int) {
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	cfg := core.ConfigBalanced
	cfg.Selector = core.Fixed(algo)
	chip.Launch(func(c *scc.Core) {
		ue := comm.UE(c.ID)
		x := core.NewCtx(ue, cfg)
		src := c.AllocF64(n)
		dst := c.AllocF64(n)
		for i := 0; i < ops; i++ {
			if err := x.Allreduce(src, dst, n, core.Sum); err != nil {
				panic(fmt.Sprintf("allreduce[%s]: %v", algo, err))
			}
		}
		x.Release()
	})
	if err := chip.Run(); err != nil {
		panic(err)
	}
}

func TestAllreduceAlgorithmsAllocBudget(t *testing.T) {
	const n = 552
	for _, algo := range core.AlgorithmNames(core.KindAllreduce) {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			a := testing.AllocsPerRun(2, func() { runAllreduceOps(algo, 2, n) })
			b := testing.AllocsPerRun(2, func() { runAllreduceOps(algo, 8, n) })
			perOp := (b - a) / 6
			// Budget: one 48-core Allreduce may allocate at most 48
			// objects total (one per core) in the steady state; the
			// paper-path algorithms measure essentially zero and the
			// budget leaves headroom for Go runtime noise only.
			if perOp > 48 {
				t.Fatalf("Allreduce[%s] allocates %.1f objects/op; budget 48", algo, perOp)
			}
			t.Logf("Allreduce[%s]: %.2f allocs/op", algo, perOp)
		})
	}
}

// TestReleaseWithoutScratchAllocatesNothing pins Release on a fresh
// context (like every core of a 10,000-core tree Barrier + Broadcast):
// it drops the context's memos and allocates nothing. A context owns no
// staging vectors to hand back; they are its core's (scc.Core.ScratchF64)
// and are recycled with the chip.
func TestReleaseWithoutScratchAllocatesNothing(t *testing.T) {
	const runs = 100
	chip := scc.New(timing.Default())
	defer chip.Release()
	comm := rcce.NewComm(chip)
	ctxs := make([]*core.Ctx, runs+1)
	for i := range ctxs {
		ctxs[i] = core.NewCtx(comm.UE(i%comm.NumUEs()), core.ConfigLightweight)
	}
	next := 0
	if a := testing.AllocsPerRun(runs, func() {
		ctxs[next].Release()
		next++
	}); a != 0 {
		t.Fatalf("Release of a scratch-free context allocates %.2f objects, want 0", a)
	}
}
