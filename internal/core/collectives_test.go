package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"scc/internal/metrics"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
	"scc/internal/trace"
)

// makeInputs builds deterministic per-core input vectors.
func makeInputs(p, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([][]float64, p)
	for j := range in {
		in[j] = make([]float64, n)
		for i := range in[j] {
			in[j][i] = math.Round(rng.Float64()*100) / 4 // exact in binary
		}
	}
	return in
}

// sumRef computes the element-wise sum over all cores' vectors.
func sumRef(in [][]float64) []float64 {
	out := make([]float64, len(in[0]))
	for _, v := range in {
		for i, x := range v {
			out[i] += x
		}
	}
	return out
}

// runAllreduce executes one Allreduce on a fresh 48-core chip and
// returns every core's result and the simulated end time.
func runAllreduce(t *testing.T, cfg Config, in [][]float64) ([][]float64, simtime.Time) {
	t.Helper()
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	p := chip.NumCores()
	n := len(in[0])
	out := make([][]float64, p)
	chip.Launch(func(core *scc.Core) {
		x := NewCtx(comm.UE(core.ID), cfg)
		src := core.AllocF64(n)
		dst := core.AllocF64(n)
		core.WriteF64s(src, in[core.ID])
		x.Allreduce(src, dst, n, Sum)
		got := make([]float64, n)
		core.ReadF64s(dst, got)
		out[core.ID] = got
	})
	if err := chip.Run(); err != nil {
		t.Fatalf("%s allreduce: %v", cfg.Name(), err)
	}
	return out, chip.Now()
}

func checkAll(t *testing.T, label string, out [][]float64, want []float64) {
	t.Helper()
	for id, got := range out {
		if len(got) != len(want) {
			t.Fatalf("%s: core %d result length %d, want %d", label, id, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("%s: core %d element %d = %v, want %v", label, id, i, got[i], want[i])
			}
		}
	}
}

func TestAllreduceAllConfigsCorrect(t *testing.T) {
	sizes := []int{1, 4, 47, 48, 49, 52, 96, 200, 552}
	for _, cfg := range Configs() {
		for _, n := range sizes {
			in := makeInputs(48, n, int64(n))
			want := sumRef(in)
			out, _ := runAllreduce(t, cfg, in)
			checkAll(t, fmt.Sprintf("%s n=%d", cfg.Name(), n), out, want)
		}
	}
}

func TestReduceScatterCorrect(t *testing.T) {
	for _, cfg := range Configs() {
		if cfg.MPBDirect {
			continue // ReduceScatter has no MPB-direct variant by itself
		}
		n := 552
		in := makeInputs(48, n, 7)
		want := sumRef(in)
		blocksWant := PartitionFor(n, 48, cfg.Balanced)
		got := make([][]float64, 48)
		chip := scc.New(timing.Default())
		comm := rcce.NewComm(chip)
		chip.Launch(func(core *scc.Core) {
			x := NewCtx(comm.UE(core.ID), cfg)
			src := core.AllocF64(n)
			dst := core.AllocF64(n) // oversized, fine
			core.WriteF64s(src, in[core.ID])
			blocks, err := x.ReduceScatter(src, dst, n, Sum)
			if err != nil {
				t.Errorf("ReduceScatter: %v", err)
				return
			}
			b := blocks[core.ID]
			v := make([]float64, b.Len)
			core.ReadF64s(dst, v)
			got[core.ID] = v
		})
		if err := chip.Run(); err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		for id := range got {
			b := blocksWant[id]
			for i := 0; i < b.Len; i++ {
				if math.Abs(got[id][i]-want[b.Off+i]) > 1e-9 {
					t.Fatalf("%s: core %d block element %d wrong", cfg.Name(), id, i)
				}
			}
		}
	}
}

func TestReduceCorrect(t *testing.T) {
	for _, cfg := range Configs() {
		if cfg.MPBDirect {
			continue
		}
		for _, root := range []int{0, 17, 47} {
			n := 300
			in := makeInputs(48, n, int64(root))
			want := sumRef(in)
			var got []float64
			chip := scc.New(timing.Default())
			comm := rcce.NewComm(chip)
			chip.Launch(func(core *scc.Core) {
				x := NewCtx(comm.UE(core.ID), cfg)
				src := core.AllocF64(n)
				dst := core.AllocF64(n)
				core.WriteF64s(src, in[core.ID])
				x.Reduce(root, src, dst, n, Sum)
				if core.ID == root {
					got = make([]float64, n)
					core.ReadF64s(dst, got)
				}
			})
			if err := chip.Run(); err != nil {
				t.Fatalf("%s root=%d: %v", cfg.Name(), root, err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("%s root=%d: element %d = %v want %v", cfg.Name(), root, i, got[i], want[i])
				}
			}
		}
	}
}

func TestBroadcastCorrect(t *testing.T) {
	for _, cfg := range Configs() {
		if cfg.MPBDirect {
			continue
		}
		for _, root := range []int{0, 23} {
			n := 575
			src := make([]float64, n)
			for i := range src {
				src[i] = float64(i)*0.5 + float64(root)
			}
			out := make([][]float64, 48)
			chip := scc.New(timing.Default())
			comm := rcce.NewComm(chip)
			chip.Launch(func(core *scc.Core) {
				x := NewCtx(comm.UE(core.ID), cfg)
				a := core.AllocF64(n)
				if core.ID == root {
					core.WriteF64s(a, src)
				}
				x.Broadcast(root, a, n)
				got := make([]float64, n)
				core.ReadF64s(a, got)
				out[core.ID] = got
			})
			if err := chip.Run(); err != nil {
				t.Fatalf("%s root=%d: %v", cfg.Name(), root, err)
			}
			checkAll(t, fmt.Sprintf("bcast %s root=%d", cfg.Name(), root), out, src)
		}
	}
}

func TestAllgatherCorrect(t *testing.T) {
	for _, cfg := range Configs() {
		if cfg.MPBDirect {
			continue
		}
		nPer := 37
		in := makeInputs(48, nPer, 5)
		want := make([]float64, 48*nPer)
		for j, v := range in {
			copy(want[j*nPer:], v)
		}
		out := make([][]float64, 48)
		chip := scc.New(timing.Default())
		comm := rcce.NewComm(chip)
		chip.Launch(func(core *scc.Core) {
			x := NewCtx(comm.UE(core.ID), cfg)
			src := core.AllocF64(nPer)
			dst := core.AllocF64(48 * nPer)
			core.WriteF64s(src, in[core.ID])
			x.Allgather(src, nPer, dst)
			got := make([]float64, 48*nPer)
			core.ReadF64s(dst, got)
			out[core.ID] = got
		})
		if err := chip.Run(); err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		checkAll(t, "allgather "+cfg.Name(), out, want)
	}
}

func TestAlltoallCorrect(t *testing.T) {
	for _, cfg := range Configs() {
		if cfg.MPBDirect {
			continue
		}
		nPer := 9
		p := 48
		// srcs[j] block q = unique value base j*1000+q.
		out := make([][]float64, p)
		chip := scc.New(timing.Default())
		comm := rcce.NewComm(chip)
		chip.Launch(func(core *scc.Core) {
			x := NewCtx(comm.UE(core.ID), cfg)
			src := core.AllocF64(p * nPer)
			dst := core.AllocF64(p * nPer)
			v := make([]float64, p*nPer)
			for q := 0; q < p; q++ {
				for i := 0; i < nPer; i++ {
					v[q*nPer+i] = float64(core.ID)*1000 + float64(q) + float64(i)*0.001
				}
			}
			core.WriteF64s(src, v)
			x.Alltoall(src, dst, nPer)
			got := make([]float64, p*nPer)
			core.ReadF64s(dst, got)
			out[core.ID] = got
		})
		if err := chip.Run(); err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		for me := 0; me < p; me++ {
			for q := 0; q < p; q++ {
				for i := 0; i < nPer; i++ {
					want := float64(q)*1000 + float64(me) + float64(i)*0.001
					got := out[me][q*nPer+i]
					if math.Abs(got-want) > 1e-9 {
						t.Fatalf("%s: core %d block %d elem %d = %v want %v",
							cfg.Name(), me, q, i, got, want)
					}
				}
			}
		}
	}
}

func TestAllreduceMPBFallbackForHugeVectors(t *testing.T) {
	// A vector whose blocks exceed half an MPB data region must still
	// reduce correctly via the fallback path. Blocks ~ n/48 doubles;
	// half-region = 3328 B = 416 doubles -> n > 416*48 (with balanced
	// partition) forces the fallback. Three calls on one context: every
	// sum is right, private memory stops growing after the first call,
	// and the first call ends on every core at the tick it always has.
	n := 48*416 + 96
	in := makeInputs(48, n, 99)
	want := sumRef(in)
	const calls = 3
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	out := make([][][]float64, calls)
	for c := range out {
		out[c] = make([][]float64, chip.NumCores())
	}
	brk := make([][calls]scc.Addr, chip.NumCores())
	first := make([]simtime.Time, chip.NumCores())
	chip.Launch(func(core *scc.Core) {
		x := NewCtx(comm.UE(core.ID), ConfigMPB)
		src := core.AllocF64(n)
		dst := core.AllocF64(n)
		core.WriteF64s(src, in[core.ID])
		for c := 0; c < calls; c++ {
			if err := x.Allreduce(src, dst, n, Sum); err != nil {
				t.Errorf("core %d call %d: %v", core.ID, c+1, err)
				return
			}
			if c == 0 {
				first[core.ID] = core.Now()
			}
			brk[core.ID][c] = core.Alloc(0)
			out[c][core.ID] = make([]float64, n)
			core.ReadF64s(dst, out[c][core.ID])
		}
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for c := range out {
		checkAll(t, fmt.Sprintf("mpb fallback call %d", c+1), out[c], want)
	}
	for id, b := range brk {
		if b[1] != b[0] || b[2] != b[0] {
			t.Errorf("core %d: brk %d, %d, %d after the three calls; private memory grows per call", id, b[0], b[1], b[2])
		}
	}
	if first[0] != 19534717 || slices.Max(first) != 19534717 {
		t.Errorf("first call ends at tick %d on core 0 and %d at the latest", first[0], slices.Max(first))
	}
}

// TestMPBFallbackIsDispatched: an MPB-config Allreduce whose blocks fit
// half a data region runs the MPB ring, and one whose blocks do not is
// the dispatcher's fallback, so its span and metrics row name the ring
// that ran it.
func TestMPBFallbackIsDispatched(t *testing.T) {
	chip := scc.New(timing.Default())
	defer chip.Release()
	reg, rec := metrics.New(chip.NumCores()), &trace.Recorder{}
	chip.SetMetrics(reg)
	comm := rcce.NewComm(chip)
	sizes := []int{552, 48*416 + 96}
	chip.Launch(func(c *scc.Core) {
		c.SetSpanRecorder(rec.Hook(c.ID))
		x := NewCtx(comm.UE(c.ID), ConfigMPB)
		for _, n := range sizes {
			src, dst := c.AllocF64(n), c.AllocF64(n)
			if err := x.Allreduce(src, dst, n, Sum); err != nil {
				t.Errorf("core %d n=%d: %v", c.ID, n, err)
			}
		}
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	var cols []string
	for _, col := range reg.Snapshot().Collectives {
		cols = append(cols, col.Label)
	}
	if want := []string{"allreduce[mpb]", "allreduce[ring]"}; !slices.Equal(cols, want) {
		t.Errorf("metrics rows %q, want %q", cols, want)
	}
	spans := map[int][]string{}
	for _, sp := range rec.Spans() {
		if strings.HasPrefix(sp.Label, "allreduce[") {
			spans[sp.Core] = append(spans[sp.Core], sp.Label)
		}
	}
	for id := 0; id < chip.NumCores(); id++ {
		if want := []string{"allreduce[mpb]", "allreduce[ring]"}; !slices.Equal(spans[id], want) {
			t.Fatalf("core %d spans %q, want %q", id, spans[id], want)
		}
	}
}

func TestAllreduceOtherOps(t *testing.T) {
	n := 100
	in := makeInputs(48, n, 3)
	wantMax := make([]float64, n)
	for i := range wantMax {
		wantMax[i] = math.Inf(-1)
		for j := range in {
			if in[j][i] > wantMax[i] {
				wantMax[i] = in[j][i]
			}
		}
	}
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	out := make([][]float64, 48)
	chip.Launch(func(core *scc.Core) {
		x := NewCtx(comm.UE(core.ID), ConfigBalanced)
		src := core.AllocF64(n)
		dst := core.AllocF64(n)
		core.WriteF64s(src, in[core.ID])
		x.Allreduce(src, dst, n, Max)
		got := make([]float64, n)
		core.ReadF64s(dst, got)
		out[core.ID] = got
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	checkAll(t, "allreduce max", out, wantMax)
}
