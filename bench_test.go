// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Each iteration runs a full 48-core simulation; the reported custom
// metric "simlat_us" is the simulated latency the corresponding figure
// plots (wall ns/op only measures the simulator itself).
//
//	go test -bench=Fig9f -benchmem .       # one Allreduce panel
//	go test -bench=. -benchmem .           # everything
//
// The full-resolution sweeps behind EXPERIMENTS.md come from
// cmd/sccbench, cmd/blocktable and cmd/gcmcapp; these benchmarks pin the
// representative points so regressions show up in `go test -bench`.
package sccsim_test

import (
	"fmt"
	"testing"

	"scc/internal/bench"
	"scc/internal/core"
	"scc/internal/gcmc"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

// benchPanel measures every stack of one Fig. 9 panel at the paper's
// application vector size (552 doubles; the x-axis midpoint).
func benchPanel(b *testing.B, op bench.Op) {
	for _, st := range bench.StacksFor(op) {
		st := st
		b.Run(st.Name, func(b *testing.B) {
			model := timing.Default()
			var last float64
			for i := 0; i < b.N; i++ {
				last = bench.Measure(model, op, st, 552, 1).Micros()
			}
			b.ReportMetric(last, "simlat_us")
		})
	}
}

// BenchmarkFig9aAllgather regenerates Fig. 9a (Allgather latency).
func BenchmarkFig9aAllgather(b *testing.B) { benchPanel(b, bench.OpAllgather) }

// BenchmarkFig9bAlltoall regenerates Fig. 9b (Alltoall latency).
func BenchmarkFig9bAlltoall(b *testing.B) { benchPanel(b, bench.OpAlltoall) }

// BenchmarkFig9cReduceScatter regenerates Fig. 9c (ReduceScatter).
func BenchmarkFig9cReduceScatter(b *testing.B) { benchPanel(b, bench.OpReduceScatter) }

// BenchmarkFig9dBroadcast regenerates Fig. 9d (Broadcast).
func BenchmarkFig9dBroadcast(b *testing.B) { benchPanel(b, bench.OpBroadcast) }

// BenchmarkFig9eReduce regenerates Fig. 9e (Reduce).
func BenchmarkFig9eReduce(b *testing.B) { benchPanel(b, bench.OpReduce) }

// BenchmarkFig9fAllreduce regenerates Fig. 9f (Allreduce), the panel the
// paper's Sec. IV optimization ladder is calibrated against.
func BenchmarkFig9fAllreduce(b *testing.B) { benchPanel(b, bench.OpAllreduce) }

// BenchmarkFig6Partition regenerates Fig. 6: the block partitioning of
// both strategies for the paper's three vector lengths.
func BenchmarkFig6Partition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{528, 552, 575} {
			_ = core.Partition(n, 48)
			_ = core.PartitionBalanced(n, 48)
		}
	}
	// Report the paper's headline ratio for 575 elements (5.3:1 -> 1.1:1).
	b.ReportMetric(core.ImbalanceRatio(core.Partition(575, 48)), "std_ratio")
	b.ReportMetric(core.ImbalanceRatio(core.PartitionBalanced(575, 48)), "bal_ratio")
}

// BenchmarkFig10GCMC regenerates Fig. 10: the thermodynamic application
// under every communication stack (scaled-down cycle count; the ratios
// are what the figure shows).
func BenchmarkFig10GCMC(b *testing.B) {
	p := gcmc.DefaultParams()
	p.Cycles = 10
	for _, st := range bench.GCMCStacks() {
		st := st
		b.Run(st.Name, func(b *testing.B) {
			var last bench.GCMCResult
			for i := 0; i < b.N; i++ {
				last = bench.RunGCMC(timing.Default(), st, p)
			}
			b.ReportMetric(last.WallTime.Millis(), "simwall_ms")
			b.ReportMetric(100*last.WaitFraction(), "wait_pct")
		})
	}
}

// BenchmarkAblationBugFixed probes the paper's Sec. IV-D prediction: with
// the SCC's local-MPB erratum fixed (15-core-cycle local accesses), the
// MPB-direct Allreduce should pull clearly ahead of the lightweight
// balanced stack.
func BenchmarkAblationBugFixed(b *testing.B) {
	for _, fixed := range []bool{false, true} {
		fixed := fixed
		name := "buggy-hardware"
		if fixed {
			name = "bug-fixed-hardware"
		}
		b.Run(name, func(b *testing.B) {
			model := timing.Default()
			model.HardwareBugFixed = fixed
			var bal, mpb float64
			for i := 0; i < b.N; i++ {
				bal = bench.Measure(model, bench.OpAllreduce,
					bench.Stack{Name: "bal", Cfg: core.ConfigBalanced}, 552, 1).Micros()
				mpb = bench.Measure(model, bench.OpAllreduce,
					bench.Stack{Name: "mpb", Cfg: core.ConfigMPB}, 552, 1).Micros()
			}
			b.ReportMetric(bal, "balanced_us")
			b.ReportMetric(mpb, "mpb_us")
			b.ReportMetric(bal/mpb, "mpb_speedup")
		})
	}
}

// BenchmarkRingVsRecursiveDoubling locates the algorithm crossover that
// justifies RCCE_comm's (and the paper's) use of the ring for long
// vectors: log-depth recursive doubling wins on latency-bound short
// vectors, the ring's lower data volume wins on long ones.
func BenchmarkRingVsRecursiveDoubling(b *testing.B) {
	lat := func(n int, recdouble bool) float64 {
		chip := scc.New(timing.Default())
		comm := rcce.NewComm(chip)
		cfg := core.ConfigLightweight
		if recdouble {
			cfg.Selector = core.Fixed("recdouble")
		}
		chip.Launch(func(c *scc.Core) {
			x := core.NewCtx(comm.UE(c.ID), cfg)
			x.Allreduce(c.AllocF64(n), c.AllocF64(n), n, core.Sum)
		})
		if err := chip.Run(); err != nil {
			b.Fatal(err)
		}
		return chip.Now().Micros()
	}
	for _, n := range []int{16, 128, 552, 4000} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var ring, rd float64
			for i := 0; i < b.N; i++ {
				ring = lat(n, false)
				rd = lat(n, true)
			}
			b.ReportMetric(ring, "ring_us")
			b.ReportMetric(rd, "recdouble_us")
		})
	}
}
