package gcmc

import (
	"math"
	"strings"
	"testing"

	"scc/internal/core"
	"scc/internal/rcce"
	"scc/internal/rckmpi"
	"scc/internal/scc"
	"scc/internal/timing"
)

// testParams returns a scaled-down workload that keeps tests fast while
// preserving the structure (multi-atom molecules, Ewald k-vectors).
func testParams() Params {
	p := DefaultParams()
	p.NumParticles = 96
	p.NumKVecs = 64
	p.KMax = 4
	p.Cycles = 6
	return p
}

// runAll runs one GCMC simulation on all 48 cores under the given config
// and returns every core's result.
func runAll(t *testing.T, cfg core.Config, p Params) []Result {
	t.Helper()
	return runAllOn(t, timing.Default(), cfg, p)
}

// runAllOn is runAll on every core of a model chip.
func runAllOn(t *testing.T, model *timing.Model, cfg core.Config, p Params) []Result {
	t.Helper()
	chip := scc.New(model)
	comm := rcce.NewComm(chip)
	results := make([]Result, chip.NumCores())
	chip.Launch(func(c *scc.Core) {
		ctx := core.NewCtx(comm.UE(c.ID), cfg)
		sim := New(c, CoreStack{Ctx: ctx}, comm.NumUEs(), p)
		results[c.ID] = sim.Run()
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	return results
}

func TestKVectorGeneration(t *testing.T) {
	ks := makeKVectors(12.0, 0.45, 8, 276)
	if len(ks) != 276 {
		t.Fatalf("got %d k-vectors, want 276", len(ks))
	}
	seen := map[[3]int]bool{}
	for i, k := range ks {
		if k.K2 <= 0 {
			t.Fatalf("k-vector %d has non-positive |k|^2", i)
		}
		if k.Coeff <= 0 {
			t.Fatalf("k-vector %d has non-positive coefficient", i)
		}
		if seen[k.N] {
			t.Fatalf("duplicate k-vector %v", k.N)
		}
		seen[k.N] = true
		// Half-space representative: first nonzero component positive.
		n := k.N
		if n[0] < 0 || (n[0] == 0 && (n[1] < 0 || (n[1] == 0 && n[2] <= 0))) {
			t.Fatalf("k-vector %v not in the canonical half space", n)
		}
		if i > 0 && ks[i].K2 < ks[i-1].K2 {
			t.Fatalf("k-vectors not sorted by magnitude at %d", i)
		}
	}
}

func TestPaperKVectorCountIs552Doubles(t *testing.T) {
	p := DefaultParams()
	if p.NumKVecs != 276 {
		t.Fatalf("default KMAXVECS = %d, want the paper's 276", p.NumKVecs)
	}
	// 276 complex coefficients = 552 doubles in the Allreduce.
	if 2*p.NumKVecs != 552 {
		t.Fatal("allreduce vector is not 552 doubles")
	}
}

func TestAllCoresAgreeOnPhysics(t *testing.T) {
	res := runAll(t, core.ConfigBalanced, testParams())
	first := res[0]
	for id, r := range res {
		if r.FinalEnergy != first.FinalEnergy || r.FinalN != first.FinalN ||
			r.Stats != first.Stats {
			t.Fatalf("core %d diverged: %+v vs %+v", id, r, first)
		}
	}
	if first.Stats.Attempted != testParams().Cycles {
		t.Fatalf("attempted %d moves, want %d", first.Stats.Attempted, testParams().Cycles)
	}
	if math.IsNaN(first.FinalEnergy) || math.IsInf(first.FinalEnergy, 0) {
		t.Fatalf("energy not finite: %v", first.FinalEnergy)
	}
}

func TestPhysicsIdenticalAcrossStacks(t *testing.T) {
	// The communication stack must not change the physics, only the
	// timing (the paper's Fig. 10 bars all compute the same system).
	p := testParams()
	a := runAll(t, core.ConfigBlocking, p)[0]
	b := runAll(t, core.ConfigMPB, p)[0]
	if a.FinalEnergy != b.FinalEnergy || a.FinalN != b.FinalN || a.Stats != b.Stats {
		t.Fatalf("physics depends on the stack: %+v vs %+v", a, b)
	}
	if a.WallTime <= b.WallTime {
		t.Fatalf("blocking (%v) should be slower than MPB-based (%v)", a.WallTime, b.WallTime)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	p := testParams()
	a := runAll(t, core.ConfigLightweight, p)[0]
	b := runAll(t, core.ConfigLightweight, p)[0]
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesTrajectory(t *testing.T) {
	p := testParams()
	a := runAll(t, core.ConfigBalanced, p)[0]
	p.Seed = 99
	b := runAll(t, core.ConfigBalanced, p)[0]
	if a.FinalEnergy == b.FinalEnergy && a.Stats == b.Stats {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestEnergyBookkeepingConsistent(t *testing.T) {
	// The incrementally tracked energy (Algorithm 1's en_old) must match
	// a from-scratch recomputation within floating-point tolerance.
	p := testParams()
	p.Cycles = 10
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	var drift, scale float64
	chip.Launch(func(c *scc.Core) {
		ctx := core.NewCtx(comm.UE(c.ID), core.ConfigBalanced)
		sim := New(c, CoreStack{Ctx: ctx}, comm.NumUEs(), p)
		res := sim.Run()
		d := sim.EnergyDriftCheck()
		if c.ID == 0 {
			drift = d
			scale = math.Abs(res.FinalEnergy)
		}
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	if scale < 1 {
		scale = 1
	}
	if math.Abs(drift)/scale > 1e-9 {
		t.Fatalf("incremental energy drifted by %g (scale %g)", drift, scale)
	}
}

func TestGCMCMovesChangeParticleCount(t *testing.T) {
	// With a generous Adams B, insertions should be accepted over a
	// longer run, changing N.
	p := testParams()
	p.Cycles = 40
	p.AdamsB = 6
	res := runAll(t, core.ConfigBalanced, p)[0]
	if res.Stats.AcceptedInserts == 0 && res.Stats.AcceptedDeletes == 0 {
		t.Fatalf("no grand-canonical moves accepted in %d cycles: %+v", p.Cycles, res.Stats)
	}
	if res.FinalN < 0 {
		t.Fatalf("negative particle count %d", res.FinalN)
	}
}

func TestAllreduceCountMatchesAlgorithm(t *testing.T) {
	// Every displace/insert/delete cycle calls LongEn twice
	// (Algorithm 1 lines 5 and 8... except delete which skips the
	// removed particle's short term), plus once in InitialEnergy.
	p := testParams()
	res := runAll(t, core.ConfigBalanced, p)[0]
	want := 2*p.Cycles + 1
	if res.CommAllreduce != want {
		t.Fatalf("552-double allreduces = %d, want %d", res.CommAllreduce, want)
	}
}

func TestBlockingStackSpendsSubstantialTimeWaiting(t *testing.T) {
	// Sec. IV-A: profiling showed cores spend a large share of time in
	// rcce_wait_until under the blocking stack; the optimized stacks
	// reduce it sharply.
	p := testParams()
	blk := runAll(t, core.ConfigBlocking, p)[0]
	bal := runAll(t, core.ConfigBalanced, p)[0]
	blkFrac := float64(blk.FlagWaitTime) / float64(blk.WallTime)
	balFrac := float64(bal.FlagWaitTime) / float64(bal.WallTime)
	if blkFrac < 0.10 {
		t.Fatalf("blocking wait fraction %.2f implausibly low", blkFrac)
	}
	if balFrac >= blkFrac {
		t.Fatalf("optimized stack waits more (%.2f) than blocking (%.2f)", balFrac, blkFrac)
	}
}

func TestWrap(t *testing.T) {
	cases := []struct{ x, l, want float64 }{
		{0, 10, 0},
		{3, 10, 3},
		{12, 10, 2},
		{-1, 10, 9},
		{-11, 10, 9},
	}
	for _, c := range cases {
		if got := wrap(c.x, c.l); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("wrap(%v,%v) = %v, want %v", c.x, c.l, got, c.want)
		}
	}
}

func TestMinImage(t *testing.T) {
	if got := minImage(7, 10); got != -3 {
		t.Errorf("minImage(7,10) = %v, want -3", got)
	}
	if got := minImage(-7, 10); got != 3 {
		t.Errorf("minImage(-7,10) = %v, want 3", got)
	}
	if got := minImage(2, 10); got != 2 {
		t.Errorf("minImage(2,10) = %v, want 2", got)
	}
}

func TestGCMCUnderRCKMPI(t *testing.T) {
	// The comparator stack must run the application too (Fig. 10's top
	// bar) and compute identical physics.
	p := testParams()
	p.Cycles = 3
	chipA := scc.New(timing.Default())
	commA := rcce.NewComm(chipA)
	var viaCore Result
	chipA.Launch(func(c *scc.Core) {
		ctx := core.NewCtx(commA.UE(c.ID), core.ConfigBalanced)
		res := New(c, CoreStack{Ctx: ctx}, commA.NumUEs(), p).Run()
		if c.ID == 0 {
			viaCore = res
		}
	})
	if err := chipA.Run(); err != nil {
		t.Fatal(err)
	}

	chipB := scc.New(timing.Default())
	commB := rcce.NewComm(chipB)
	var viaMPI Result
	chipB.Launch(func(c *scc.Core) {
		lib := rckmpi.New(commB.UE(c.ID))
		res := New(c, RCKMPIStack{Lib: lib}, commB.NumUEs(), p).Run()
		if c.ID == 0 {
			viaMPI = res
		}
	})
	if err := chipB.Run(); err != nil {
		t.Fatal(err)
	}
	if viaCore.FinalEnergy != viaMPI.FinalEnergy || viaCore.FinalN != viaMPI.FinalN {
		t.Fatalf("physics differs across stacks: %+v vs %+v", viaCore, viaMPI)
	}
	if viaMPI.WallTime <= viaCore.WallTime {
		t.Fatalf("RCKMPI (%v) should be slower than the optimized stack (%v)",
			viaMPI.WallTime, viaCore.WallTime)
	}
}

// TestCoreStackFailureFailsTheRun: the Collectives interface has no
// error results, so a collective that fails must fail the chip run
// instead of being dropped.
func TestCoreStackFailureFailsTheRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(s CoreStack, buf scc.Addr)
		want string
	}{
		{"allreduce", func(s CoreStack, buf scc.Addr) { s.Allreduce(buf, buf, -1) }, "negative count"},
		{"broadcast", func(s CoreStack, buf scc.Addr) { s.Broadcast(-1, buf, 1) }, "root"},
	} {
		chip := scc.New(timing.Default())
		comm := rcce.NewComm(chip)
		chip.Launch(func(c *scc.Core) {
			tc.call(CoreStack{Ctx: core.NewCtx(comm.UE(c.ID), core.ConfigBalanced)}, c.AllocF64(1))
		})
		err := chip.Run()
		if err == nil || !strings.Contains(err.Error(), core.ErrInvalid.Error()) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run error %v, want the collective's invalid-argument error (%s)", tc.name, err, tc.want)
		}
	}
}
