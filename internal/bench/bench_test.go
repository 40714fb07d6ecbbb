package bench

import (
	"strings"
	"testing"

	"scc/internal/core"
	"scc/internal/fabric"
	"scc/internal/gcmc"
	"scc/internal/rcce"
	"scc/internal/rckmpi"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

func TestStacksForPanels(t *testing.T) {
	// Allgather/Alltoall: 4 legend entries (no balancing); rooted and
	// reduction collectives: 5; Allreduce: 6 (adds the MPB stack).
	if got := len(StacksFor(OpAllgather)); got != 4 {
		t.Fatalf("allgather legend = %d entries, want 4", got)
	}
	if got := len(StacksFor(OpBroadcast)); got != 5 {
		t.Fatalf("broadcast legend = %d entries, want 5", got)
	}
	stacks := StacksFor(OpAllreduce)
	if got := len(stacks); got != 6 {
		t.Fatalf("allreduce legend = %d entries, want 6", got)
	}
	if stacks[5].Name != "MPB-based Allreduce" || !stacks[5].Cfg.MPBDirect {
		t.Fatalf("allreduce legend missing the MPB stack: %+v", stacks[5])
	}
	if !stacks[0].RCKMPI {
		t.Fatal("RCKMPI must be the first legend entry (paper order)")
	}
}

func TestMeasureIsDeterministic(t *testing.T) {
	m := timing.Default()
	st := Stack{Name: "bal", Cfg: core.ConfigBalanced}
	a := Measure(m, OpAllreduce, st, 100, 1)
	b := Measure(m, OpAllreduce, st, 100, 1)
	if a != b {
		t.Fatalf("measurements differ: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatal("non-positive latency")
	}
}

func TestMeasureEveryOpRuns(t *testing.T) {
	m := timing.Default()
	st := Stack{Name: "lw", Cfg: core.ConfigLightweight}
	rk := Stack{Name: "rck", RCKMPI: true}
	for _, op := range AllOps() {
		if d := Measure(m, op, st, 52, 1); d <= 0 {
			t.Fatalf("%s: non-positive latency", op)
		}
		if d := Measure(m, op, rk, 52, 1); d <= 0 {
			t.Fatalf("%s under RCKMPI: non-positive latency", op)
		}
	}
}

func TestSizes(t *testing.T) {
	s := Sizes(500, 520, 4)
	want := []int{500, 504, 508, 512, 516, 520}
	if len(s) != len(want) {
		t.Fatalf("sizes %v, want %v", s, want)
	}
	for i := range s {
		if s[i] != want[i] {
			t.Fatalf("sizes %v, want %v", s, want)
		}
	}
	if got := Sizes(5, 7, 0); len(got) != 3 {
		t.Fatalf("step 0 must clamp to 1, got %v", got)
	}
}

func TestSweepAndStats(t *testing.T) {
	m := timing.Default()
	sweep := func(st Stack) Series {
		return NewRunner(1).panels(m, []Op{OpAllreduce}, func(Op) []Stack { return []Stack{st} }, []int{96, 144}, 1)[0][0]
	}
	base := sweep(Stack{Name: "blocking", Cfg: core.ConfigBlocking})
	fast := sweep(Stack{Name: "bal", Cfg: core.ConfigBalanced})
	if len(base.Points) != 2 || base.Points[0].N != 96 {
		t.Fatalf("sweep points wrong: %+v", base.Points)
	}
	if MeanLatency(base) <= 0 {
		t.Fatal("mean latency not positive")
	}
	if sp := SpeedupVsBaseline(base, fast); sp <= 1 {
		t.Fatalf("optimized stack speedup %.2f, want > 1", sp)
	}
	if MeanLatency(Series{}) != 0 || SpeedupVsBaseline(base, Series{}) != 0 {
		t.Fatal("empty series edge cases broken")
	}
}

func TestWriteCSVAndTable(t *testing.T) {
	series := []Series{
		{Stack: Stack{Name: "a"}, Points: []Point{{N: 10, Latency: simtime.Microseconds(5)}}},
		{Stack: Stack{Name: "b"}, Points: []Point{{N: 10, Latency: simtime.Microseconds(7)}}},
	}
	var csv strings.Builder
	if err := WriteCSV(&csv, series); err != nil {
		t.Fatal(err)
	}
	if got := csv.String(); got != "n,a,b\n10,5.00,7.00\n" {
		t.Fatalf("csv = %q", got)
	}
	var tab strings.Builder
	if err := WriteTable(&tab, "title", series); err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "5.0us") {
		t.Fatalf("table = %q", out)
	}
	if err := WriteCSV(&csv, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunGCMCSmoke(t *testing.T) {
	p := gcmc.DefaultParams()
	p.NumParticles = 96
	p.NumKVecs = 48
	p.KMax = 4
	p.Cycles = 3
	blk := RunGCMC(timing.Default(), Stack{Name: "blocking", Cfg: core.ConfigBlocking}, p)
	bal := RunGCMC(timing.Default(), Stack{Name: "bal", Cfg: core.ConfigBalanced}, p)
	if blk.FinalEnergy != bal.FinalEnergy || blk.FinalN != bal.FinalN {
		t.Fatalf("stacks disagree on physics: %+v vs %+v", blk, bal)
	}
	if blk.WallTime <= bal.WallTime {
		t.Fatalf("blocking (%v) not slower than balanced (%v)", blk.WallTime, bal.WallTime)
	}
	if f := blk.WaitFraction(); f <= 0 || f >= 1 {
		t.Fatalf("wait fraction %v out of range", f)
	}
	if len(GCMCStacks()) != 6 {
		t.Fatalf("Fig. 10 has %d bars, want 6", len(GCMCStacks()))
	}
}

func TestRenderChart(t *testing.T) {
	series := []Series{
		{Stack: Stack{Name: "a"}, Points: []Point{
			{N: 10, Latency: simtime.Microseconds(100)},
			{N: 20, Latency: simtime.Microseconds(200)},
		}},
		{Stack: Stack{Name: "b"}, Points: []Point{
			{N: 10, Latency: simtime.Microseconds(50)},
			{N: 20, Latency: simtime.Microseconds(60)},
		}},
	}
	var sb strings.Builder
	if err := RenderChart(&sb, "test panel", series, 40, 8); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"test panel", "legend", "R=a", "b=b", "n=10", "n=20"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// Empty chart does not crash.
	if err := RenderChart(&sb, "empty", nil, 40, 8); err != nil {
		t.Fatal(err)
	}
}

// TestFootprintBudget bounds the live heap one simulated core costs
// after a Barrier and a Broadcast: 9.4 KB/core at 48 cores and 17.2 at
// 1,024 in a fresh process when the budgets were set, 5.8 and 6.6 since
// every flag region is one line and arena pages are 512 B, 3.4-4.8 KB
// and 3,885 B (3,957 B at most at 1,024 under -race, over twenty fresh
// processes each way) since a cache level's first slab is 8 nodes. The
// 1,024-core budget is 4 KB/core, ~140 KB above that worst reading (it
// was 10 KB/core); the 48-core one is older and more generous. The
// regressions they exist for, a dense per-core structure creeping back
// in, are 10-100x. It also bounds the heap allocated over build and run,
// freed or not: at most 0.28 and 5.02 MB over the same runs, a 64-node
// first cache slab adds 1.9 MB at 1,024 cores. The 10,240-core budget
// sits with the LargeMesh tests in the root package.
func TestFootprintBudget(t *testing.T) {
	for _, c := range []struct {
		model   *timing.Model
		kb      float64
		allocMB float64
	}{
		{timing.Default(), 16, 0.32},
		{timing.Topology(32, 32, 1), 4, 5.5},
	} {
		fp := MeasureFootprint(c.model)
		if fp.BarrierTicks <= 0 || fp.BroadcastTicks <= 0 {
			t.Fatalf("%d cores: the chip did not synchronize: %+v", fp.Cores, fp)
		}
		if fp.BytesPerCore > c.kb*1024 {
			t.Errorf("%d cores retain %.0f B/core, budget %.0f KB/core", fp.Cores, fp.BytesPerCore, c.kb)
		}
		if mb := float64(fp.AllocBytes) / (1 << 20); mb > c.allocMB {
			t.Errorf("%d cores allocate %.2f MB, budget %.2f MB", fp.Cores, mb, c.allocMB)
		}
		t.Logf("%d cores retain %.0f B/core, allocate %d B", fp.Cores, fp.BytesPerCore, fp.AllocBytes)
	}
}

// TestRCKMPIThroughRunOpAllocatesNothing: runOp calls the RCKMPI library
// through the same interface as a core context. An rckmpi.Lib is one
// pointer wide, so that costs nothing over calling the value directly;
// were Lib a pointer again, or a value with a second field, every core
// program would put one object on the heap (48 per chip run).
func TestRCKMPIThroughRunOpAllocatesNothing(t *testing.T) {
	const n = 8
	allocs := func(call func(ue *rcce.UE, src, dst scc.Addr) error) float64 {
		return testing.AllocsPerRun(10, func() {
			sys := fabric.New(timing.Default(), 1)
			defer sys.Release()
			sys.Launch(func(_ int, c *scc.Core) {
				if err := call(sys.Comms[0].UE(c.ID), c.AllocF64(n), c.AllocF64(n)); err != nil {
					panic(err)
				}
			})
			if err := sys.Run(); err != nil {
				panic(err)
			}
		})
	}
	direct := allocs(func(ue *rcce.UE, src, dst scc.Addr) error {
		return rckmpi.New(ue).Allreduce(src, dst, n, core.Sum)
	})
	viaRunOp := allocs(func(ue *rcce.UE, src, dst scc.Addr) error {
		return runOp(rckmpi.New(ue), OpAllreduce, src, dst, n)
	})
	// A leak is one object per core; a quarter of that absorbs the
	// pools' jitter across chip runs.
	if slack := float64(timing.Default().NumCores()) / 4; viaRunOp > direct+slack {
		t.Fatalf("RCKMPI Allreduce through runOp: %.1f objects per chip run, directly: %.1f", viaRunOp, direct)
	}
}
