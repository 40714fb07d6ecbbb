package core

import (
	"math"
	"testing"

	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

func runRecDouble(t *testing.T, m *timing.Model, cfg Config, n int, seed int64) ([][]float64, simtime.Time) {
	t.Helper()
	chip := scc.New(m)
	comm := rcce.NewComm(chip)
	p := chip.NumCores()
	in := makeInputs(p, n, seed)
	out := make([][]float64, p)
	pinned := cfg
	pinned.Selector = Fixed("recdouble")
	chip.Launch(func(c *scc.Core) {
		x := NewCtx(comm.UE(c.ID), pinned)
		src := c.AllocF64(n)
		dst := c.AllocF64(n)
		c.WriteF64s(src, in[c.ID])
		x.Allreduce(src, dst, n, Sum)
		got := make([]float64, n)
		c.ReadF64s(dst, got)
		out[c.ID] = got
	})
	if err := chip.Run(); err != nil {
		t.Fatalf("%s: %v", cfg.Name(), err)
	}
	// Verify against the reference.
	want := sumRef(in)
	for id := range out {
		for i := range want {
			if math.Abs(out[id][i]-want[i]) > 1e-9 {
				t.Fatalf("%s: core %d elem %d = %v, want %v", cfg.Name(), id, i, out[id][i], want[i])
			}
		}
	}
	return out, chip.Now()
}

func TestRecursiveDoublingCorrect(t *testing.T) {
	for _, cfg := range []Config{ConfigBlocking, ConfigLightweight} {
		for _, n := range []int{1, 5, 48, 200, 552} {
			runRecDouble(t, timing.Default(), cfg, n, int64(n))
		}
	}
}

func TestRecursiveDoublingOddCoreCounts(t *testing.T) {
	// 9 and 12 cores exercise the fold (non-power-of-two).
	for _, g := range []struct{ w, h, per int }{{3, 3, 1}, {3, 2, 2}} {
		m := timing.Default()
		m.MeshWidth, m.MeshHeight, m.CoresPerTile = g.w, g.h, g.per
		runRecDouble(t, m, ConfigLightweight, 100, 3)
	}
}

func TestRingVsRecursiveDoublingCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Short vectors: log-depth wins. Long vectors: the ring's lower data
	// volume wins - the reason RCCE_comm (and the paper) use the ring
	// for the 500-700 double range.
	lat := func(n int, recdouble bool) simtime.Time {
		chip := scc.New(timing.Default())
		comm := rcce.NewComm(chip)
		cfg := ConfigLightweight
		cfg.Selector = Fixed("recdouble")
		chip.Launch(func(c *scc.Core) {
			x := NewCtx(comm.UE(c.ID), cfg)
			src := c.AllocF64(n)
			dst := c.AllocF64(n)
			if recdouble {
				x.Allreduce(src, dst, n, Sum)
				x.Barrier()
				t0 := c.Now()
				x.Allreduce(src, dst, n, Sum)
				_ = t0
			} else {
				// Force the ring (bypass the short-message selection).
				blocks := PartitionFor(n, 48, false)
				x.ReduceScatter(src, dst+scc.Addr(8*blocks[c.ID].Off), n, Sum)
				x.allgatherBlocks(dst, layout{blocks: blocks})
			}
		})
		if err := chip.Run(); err != nil {
			t.Fatal(err)
		}
		return chip.Now()
	}
	shortRing, shortRD := lat(16, false), lat(16, true)
	longRing, longRD := lat(4000, false), lat(4000, true)
	if shortRD >= shortRing {
		t.Errorf("16 doubles: recursive doubling (%v) should beat the ring (%v)", shortRD, shortRing)
	}
	if longRing >= longRD {
		t.Errorf("4000 doubles: ring (%v) should beat recursive doubling (%v)", longRing, longRD)
	}
}
