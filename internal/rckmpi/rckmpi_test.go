package rckmpi

import (
	"math"
	"math/rand"
	"testing"

	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

func launchAll(t *testing.T, fn func(l Lib, c *scc.Core)) {
	t.Helper()
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	chip.Launch(func(c *scc.Core) {
		fn(New(comm.UE(c.ID)), c)
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowIsSmallAndLineAligned(t *testing.T) {
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	w := comm.Window()
	if w < 32 || w%32 != 0 {
		t.Fatalf("window = %d, want a positive multiple of one line", w)
	}
	if w >= comm.DataBytes()/8 {
		t.Fatalf("window = %d not 'small' relative to the region %d", w, comm.DataBytes())
	}
}

func TestSendRecvWindowedDelivery(t *testing.T) {
	// A message much larger than the window must cross intact.
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	n := 700
	payload := make([]float64, n)
	rng := rand.New(rand.NewSource(4))
	for i := range payload {
		payload[i] = rng.NormFloat64()
	}
	var got []float64
	chip.LaunchOne(3, func(c *scc.Core) {
		l := New(comm.UE(3))
		a := c.AllocF64(n)
		c.WriteF64s(a, payload)
		l.Send(30, a, 8*n)
	})
	chip.LaunchOne(30, func(c *scc.Core) {
		l := New(comm.UE(30))
		a := c.AllocF64(n)
		l.Recv(3, a, 8*n)
		got = make([]float64, n)
		c.ReadF64s(a, got)
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("windowed payload corrupted at %d", i)
		}
	}
}

func TestBcastTreeCorrect(t *testing.T) {
	for _, root := range []int{0, 5, 47} {
		n := 100
		want := make([]float64, n)
		for i := range want {
			want[i] = float64(i) + float64(root)*0.5
		}
		results := make([][]float64, 48)
		launchAll(t, func(l Lib, c *scc.Core) {
			a := c.AllocF64(n)
			if c.ID == root {
				c.WriteF64s(a, want)
			}
			l.Broadcast(root, a, n)
			got := make([]float64, n)
			c.ReadF64s(a, got)
			results[c.ID] = got
		})
		for id, got := range results {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("root %d: core %d elem %d = %v want %v", root, id, i, got[i], want[i])
				}
			}
		}
	}
}

func TestReduceTreeCorrect(t *testing.T) {
	for _, root := range []int{0, 11} {
		n := 64
		var got []float64
		launchAll(t, func(l Lib, c *scc.Core) {
			src := c.AllocF64(n)
			dst := c.AllocF64(n)
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(c.ID) + float64(i)
			}
			c.WriteF64s(src, v)
			l.Reduce(root, src, dst, n, func(a, b float64) float64 { return a + b })
			if c.ID == root {
				got = make([]float64, n)
				c.ReadF64s(dst, got)
			}
		})
		sumIDs := float64(47 * 48 / 2)
		for i := range got {
			want := sumIDs + 48*float64(i)
			if math.Abs(got[i]-want) > 1e-9 {
				t.Fatalf("root %d elem %d = %v, want %v", root, i, got[i], want)
			}
		}
	}
}

func TestAllreduceCorrect(t *testing.T) {
	n := 552
	out := make([][]float64, 48)
	launchAll(t, func(l Lib, c *scc.Core) {
		src := c.AllocF64(n)
		dst := c.AllocF64(n)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(c.ID)*0.25 + float64(i)
		}
		c.WriteF64s(src, v)
		l.Allreduce(src, dst, n, func(a, b float64) float64 { return a + b })
		got := make([]float64, n)
		c.ReadF64s(dst, got)
		out[c.ID] = got
	})
	for id, got := range out {
		for i := range got {
			want := 0.25*float64(47*48/2) + 48*float64(i)
			if math.Abs(got[i]-want) > 1e-9 {
				t.Fatalf("core %d elem %d = %v, want %v", id, i, got[i], want)
			}
		}
	}
}

func TestAllgatherRingCorrect(t *testing.T) {
	nPer := 21
	out := make([][]float64, 48)
	launchAll(t, func(l Lib, c *scc.Core) {
		src := c.AllocF64(nPer)
		dst := c.AllocF64(48 * nPer)
		v := make([]float64, nPer)
		for i := range v {
			v[i] = float64(c.ID)*100 + float64(i)
		}
		c.WriteF64s(src, v)
		l.Allgather(src, nPer, dst)
		got := make([]float64, 48*nPer)
		c.ReadF64s(dst, got)
		out[c.ID] = got
	})
	for id, got := range out {
		for q := 0; q < 48; q++ {
			for i := 0; i < nPer; i++ {
				want := float64(q)*100 + float64(i)
				if got[q*nPer+i] != want {
					t.Fatalf("core %d block %d elem %d = %v, want %v", id, q, i, got[q*nPer+i], want)
				}
			}
		}
	}
}

func TestAlltoallPairwiseCorrect(t *testing.T) {
	nPer := 5
	out := make([][]float64, 48)
	launchAll(t, func(l Lib, c *scc.Core) {
		src := c.AllocF64(48 * nPer)
		dst := c.AllocF64(48 * nPer)
		v := make([]float64, 48*nPer)
		for q := 0; q < 48; q++ {
			for i := 0; i < nPer; i++ {
				v[q*nPer+i] = float64(c.ID)*1000 + float64(q) + float64(i)*0.01
			}
		}
		c.WriteF64s(src, v)
		l.Alltoall(src, dst, nPer)
		got := make([]float64, 48*nPer)
		c.ReadF64s(dst, got)
		out[c.ID] = got
	})
	for me := 0; me < 48; me++ {
		for q := 0; q < 48; q++ {
			for i := 0; i < nPer; i++ {
				want := float64(q)*1000 + float64(me) + float64(i)*0.01
				if math.Abs(out[me][q*nPer+i]-want) > 1e-9 {
					t.Fatalf("core %d block %d elem %d wrong", me, q, i)
				}
			}
		}
	}
}

func TestReduceScatterCorrect(t *testing.T) {
	n := 552
	got := make([][]float64, 48)
	launchAll(t, func(l Lib, c *scc.Core) {
		src := c.AllocF64(n)
		dst := c.AllocF64(n)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(c.ID) + float64(i)*0.5
		}
		c.WriteF64s(src, v)
		l.ReduceScatter(src, dst, n, func(a, b float64) float64 { return a + b })
		// Unbalanced RCCE_comm-style partition: block 0 holds the
		// remainder.
		base := n / 48
		ln := base
		if c.ID == 0 {
			ln = base + n%48
		}
		r := make([]float64, ln)
		c.ReadF64s(dst, r)
		got[c.ID] = r
	})
	sumIDs := float64(47 * 48 / 2)
	base := n / 48
	first := base + n%48
	for id, blk := range got {
		off := 0
		if id > 0 {
			off = first + (id-1)*base
		}
		for i := range blk {
			want := sumIDs + 48*0.5*float64(off+i)
			if math.Abs(blk[i]-want) > 1e-9 {
				t.Fatalf("core %d block elem %d = %v, want %v", id, i, blk[i], want)
			}
		}
	}
}

func TestSmoothNoPartialLinePenalty(t *testing.T) {
	// RCKMPI's channel must not show the period-4 spike: the latency of
	// n=601 (partial line) must not exceed n=604 (full lines) by the
	// RCCE padding-call margin.
	lat := func(n int) float64 {
		chip := scc.New(timing.Default())
		comm := rcce.NewComm(chip)
		chip.LaunchOne(0, func(c *scc.Core) {
			l := New(comm.UE(0))
			a := c.AllocF64(n)
			l.Send(1, a, 8*n)
		})
		chip.LaunchOne(1, func(c *scc.Core) {
			l := New(comm.UE(1))
			a := c.AllocF64(n)
			l.Recv(0, a, 8*n)
		})
		if err := chip.Run(); err != nil {
			t.Fatal(err)
		}
		return chip.Now().Micros()
	}
	l601, l604 := lat(601), lat(604)
	if l601 > l604 {
		t.Fatalf("n=601 (%v us) slower than n=604 (%v us): spike present", l601, l604)
	}
}
