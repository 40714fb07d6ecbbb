package core

import (
	"math"
	"testing"

	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

func TestScatterDelivers(t *testing.T) {
	for _, cfg := range []Config{ConfigBlocking, ConfigBalanced} {
		for _, root := range []int{0, 31} {
			nPer := 7
			out := make([][]float64, 48)
			chip := scc.New(timing.Default())
			comm := rcce.NewComm(chip)
			chip.Launch(func(c *scc.Core) {
				x := NewCtx(comm.UE(c.ID), cfg)
				src := c.AllocF64(48 * nPer)
				dst := c.AllocF64(nPer)
				if c.ID == root {
					v := make([]float64, 48*nPer)
					for q := 0; q < 48; q++ {
						for i := 0; i < nPer; i++ {
							v[q*nPer+i] = float64(q)*10 + float64(i)
						}
					}
					c.WriteF64s(src, v)
				}
				x.Scatter(root, src, nPer, dst)
				got := make([]float64, nPer)
				c.ReadF64s(dst, got)
				out[c.ID] = got
			})
			if err := chip.Run(); err != nil {
				t.Fatalf("%s root=%d: %v", cfg.Name(), root, err)
			}
			for q := 0; q < 48; q++ {
				for i := 0; i < nPer; i++ {
					want := float64(q)*10 + float64(i)
					if out[q][i] != want {
						t.Fatalf("%s root=%d: core %d elem %d = %v, want %v",
							cfg.Name(), root, q, i, out[q][i], want)
					}
				}
			}
		}
	}
}

func TestGatherCollects(t *testing.T) {
	for _, root := range []int{0, 17} {
		nPer := 5
		var got []float64
		chip := scc.New(timing.Default())
		comm := rcce.NewComm(chip)
		chip.Launch(func(c *scc.Core) {
			x := NewCtx(comm.UE(c.ID), ConfigBalanced)
			src := c.AllocF64(nPer)
			dst := c.AllocF64(48 * nPer)
			v := make([]float64, nPer)
			for i := range v {
				v[i] = float64(c.ID) + float64(i)*0.1
			}
			c.WriteF64s(src, v)
			x.Gather(root, src, nPer, dst)
			if c.ID == root {
				got = make([]float64, 48*nPer)
				c.ReadF64s(dst, got)
			}
		})
		if err := chip.Run(); err != nil {
			t.Fatalf("root=%d: %v", root, err)
		}
		for q := 0; q < 48; q++ {
			for i := 0; i < nPer; i++ {
				want := float64(q) + float64(i)*0.1
				if math.Abs(got[q*nPer+i]-want) > 1e-12 {
					t.Fatalf("root=%d: block %d elem %d = %v, want %v", root, q, i, got[q*nPer+i], want)
				}
			}
		}
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	// Scatter then Gather must reproduce the root's original buffer.
	nPer := 11
	var before, after []float64
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	chip.Launch(func(c *scc.Core) {
		x := NewCtx(comm.UE(c.ID), ConfigLightweight)
		src := c.AllocF64(48 * nPer)
		mine := c.AllocF64(nPer)
		back := c.AllocF64(48 * nPer)
		if c.ID == 0 {
			v := make([]float64, 48*nPer)
			for i := range v {
				v[i] = float64(i) * 1.5
			}
			c.WriteF64s(src, v)
			before = v
		}
		x.Scatter(0, src, nPer, mine)
		x.Gather(0, mine, nPer, back)
		if c.ID == 0 {
			after = make([]float64, 48*nPer)
			c.ReadF64s(back, after)
		}
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("round trip corrupted at %d", i)
		}
	}
}

func TestScanPrefixSums(t *testing.T) {
	n := 6
	out := make([][]float64, 48)
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	chip.Launch(func(c *scc.Core) {
		x := NewCtx(comm.UE(c.ID), ConfigBalanced)
		src := c.AllocF64(n)
		dst := c.AllocF64(n)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(c.ID + i)
		}
		c.WriteF64s(src, v)
		x.Scan(src, dst, n, Sum)
		got := make([]float64, n)
		c.ReadF64s(dst, got)
		out[c.ID] = got
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 48; k++ {
		for i := 0; i < n; i++ {
			// sum over j<=k of (j+i) = (k+1)*i + k(k+1)/2
			want := float64((k+1)*i) + float64(k*(k+1)/2)
			if math.Abs(out[k][i]-want) > 1e-9 {
				t.Fatalf("scan rank %d elem %d = %v, want %v", k, i, out[k][i], want)
			}
		}
	}
}

func TestTreeVariantsMatchLongVariants(t *testing.T) {
	// Broadcast/Reduce results must be identical regardless of which
	// size variant runs; force both paths with sizes around the
	// threshold (64 doubles = 512 bytes).
	for _, n := range []int{63, 64, 65} {
		var viaAuto, viaTree []float64
		for _, forceTree := range []bool{false, true} {
			chip := scc.New(timing.Default())
			comm := rcce.NewComm(chip)
			out := make([]float64, n)
			cfg := ConfigBalanced
			if forceTree {
				cfg.Selector = Fixed("tree")
			}
			chip.Launch(func(c *scc.Core) {
				x := NewCtx(comm.UE(c.ID), cfg)
				src := c.AllocF64(n)
				dst := c.AllocF64(n)
				v := make([]float64, n)
				for i := range v {
					v[i] = float64(c.ID) + float64(i)
				}
				c.WriteF64s(src, v)
				x.Reduce(3, src, dst, n, Sum)
				if c.ID == 3 {
					c.ReadF64s(dst, out)
				}
			})
			if err := chip.Run(); err != nil {
				t.Fatal(err)
			}
			if forceTree {
				viaTree = out
			} else {
				viaAuto = out
			}
		}
		for i := range viaAuto {
			if math.Abs(viaAuto[i]-viaTree[i]) > 1e-9 {
				t.Fatalf("n=%d: tree and auto variants disagree at %d", n, i)
			}
		}
	}
}

func TestShortMessagesUseTreePath(t *testing.T) {
	// For a 1-double Allreduce the tree variant must be far cheaper than
	// the 94-round ring would be; sanity-check the latency is well under
	// the ring's floor (94 rounds x ~4us would exceed 350us).
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	var lat float64
	chip.Launch(func(c *scc.Core) {
		x := NewCtx(comm.UE(c.ID), ConfigBalanced)
		src := c.AllocF64(1)
		dst := c.AllocF64(1)
		x.Allreduce(src, dst, 1, Sum)
		x.Barrier()
		t0 := c.Now()
		x.Allreduce(src, dst, 1, Sum)
		if c.ID == 0 {
			lat = (c.Now() - t0).Micros()
		}
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	if lat > 300 {
		t.Fatalf("1-double allreduce took %.1fus: short-message variant not in effect", lat)
	}
}
