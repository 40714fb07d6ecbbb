package bench

import (
	"reflect"
	"runtime"
	"testing"

	"scc/internal/core"
	"scc/internal/fabric"
	"scc/internal/fault"
	"scc/internal/gcmc"
	"scc/internal/mesh"
	"scc/internal/metrics"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// cellPrint is everything one cell lets an observer see: a chip built on
// recycled storage must produce the print of a chip built from nothing.
type cellPrint struct {
	Latency            simtime.Duration
	Err                string
	Handoffs, Fastpath uint64
	Net                mesh.Stats
	Metrics            *metrics.Snapshot
	Faults             []fault.Event
	Results            [][]byte // per core: the private memory holding its buffers
}

func (p *cellPrint) observe(chip *scc.Chip) {
	p.Handoffs, p.Fastpath = chip.Engine.SchedStats()
	p.Net = chip.Net.Stats()
}

// programCell runs one Fig. 9 cell with a metrics registry attached and
// releases its system, like program.run, after taking the print.
func programCell(t *testing.T, model *timing.Model, op Op, st Stack, n int) cellPrint {
	t.Helper()
	pr := stackProgram(model, op, st, n, 1)
	pr.metrics = metrics.New(model.NumCores())
	sys := fabric.New(model, 1)
	defer sys.Release()
	lat, err := pr.runOn(sys)
	if err != nil {
		t.Fatalf("%s/%s n=%d: %v", op, st.Name, n, err)
	}
	p := cellPrint{Latency: lat, Metrics: pr.metrics.Snapshot()}
	p.observe(sys.Chips[0])
	// stageInput puts src at 0 and dst on the next line after it.
	line := model.CacheLineBytes
	extent := (8*pr.bufN+line-1)/line*line + 8*pr.bufN
	for _, c := range sys.Chips[0].Cores {
		p.Results = append(p.Results, append([]byte(nil), c.PrivBytes(0, extent)...))
	}
	return p
}

// faultedCell runs checkedAllreduce under a fresh plan from mkPlan. The
// system is released by the time checkedAllreduce returns; the engine and
// the mesh of a released chip still answer for their counters.
func faultedCell(model *timing.Model, cfg core.Config, mkPlan func() *fault.Plan, n int) cellPrint {
	plan := mkPlan()
	var p cellPrint
	var chip *scc.Chip
	p.Results = make([][]byte, model.NumCores())
	lat, err := checkedAllreduce(model, cfg, plan, nil, n, func(o allreduceOutcome) {
		c := o.x.UE().Core()
		chip = c.Chip()
		p.Results[c.ID] = append([]byte(nil), c.PrivBytes(o.dst, 8*n)...)
		if o.err != nil {
			p.Results[c.ID] = []byte(o.err.Error())
		}
	})
	p.Latency = lat
	if err != nil {
		p.Err = err.Error()
	}
	p.observe(chip)
	p.Faults = plan.Events()
	return p
}

// TestRecycledChipEqualsFresh is the arena's fence: cell B prints the
// same on a pool warmed by a cell A as after DrainChipPool — for every
// op under every stack, after an A that left slabs larger than B needs
// and after one that left them too small (B grows out of the adopted
// slab), and for the checked Allreduce under random faults on both
// hardened transports and with one core killed under self-healing.
func TestRecycledChipEqualsFresh(t *testing.T) {
	defer scc.DrainChipPool()
	model := timing.Default()
	const nB, nLarge, nSmall = 24, 52, 4

	for _, op := range AllOps() {
		for _, st := range StacksFor(op) {
			scc.DrainChipPool()
			fresh := programCell(t, model, op, st, nB)
			for _, nA := range []int{nLarge, nSmall} {
				scc.DrainChipPool()
				programCell(t, model, op, st, nA)
				if got := programCell(t, model, op, st, nB); !reflect.DeepEqual(got, fresh) {
					t.Errorf("%s/%s n=%d after n=%d on the same storage differs from a fresh chip:\nrecycled %+v\nfresh    %+v",
						op, st.Name, nB, nA, summary(got), summary(fresh))
				}
			}
		}
	}

	pol := rcce.DefaultPolicy()
	heal := core.DefaultHealPolicy()
	random := func() *fault.Plan { return fault.Random(13, 16, simtime.Microseconds(800), model) }
	kill := func() *fault.Plan {
		return fault.NewPlan().Add(fault.Fault{Kind: fault.CoreDie, At: simtime.Time(simtime.Microseconds(400)), Core: HealVictimFor(model.NumCores())})
	}
	for _, c := range []struct {
		name string
		cfg  core.Config
		plan func() *fault.Plan
	}{
		{"random faults, hardened blocking", core.Config{Transport: core.TransportBlocking, Balanced: true, Recovery: &pol}, random},
		{"random faults, hardened lightweight", core.Config{Transport: core.TransportLightweight, Balanced: true, Recovery: &pol}, random},
		{"self-heal kill", core.Config{Transport: core.TransportLightweight, Balanced: true, SelfHeal: &heal}, kill},
	} {
		scc.DrainChipPool()
		fresh := faultedCell(model, c.cfg, c.plan, 552)
		if len(fresh.Faults) == 0 {
			t.Errorf("%s: no fault fired", c.name)
		}
		// A: the cell that dirties the most — an Alltoall's p*n buffers
		// and every pairwise flag — then the faulted run's own remains.
		for _, warm := range []func(){
			func() { programCell(t, model, OpAlltoall, StacksFor(OpAlltoall)[1], nLarge) },
			func() { faultedCell(model, c.cfg, c.plan, 552) },
		} {
			scc.DrainChipPool()
			warm()
			if got := faultedCell(model, c.cfg, c.plan, 552); !reflect.DeepEqual(got, fresh) {
				t.Errorf("%s on recycled storage differs from a fresh chip:\nrecycled %+v\nfresh    %+v", c.name, summary(got), summary(fresh))
			}
		}
	}

	// A kit of another geometry is dropped, not adopted: B after a 32x32
	// chip is B on a fresh chip.
	st := StacksFor(OpBroadcast)[2]
	scc.DrainChipPool()
	fresh := programCell(t, model, OpBroadcast, st, nB)
	scc.DrainChipPool()
	programCell(t, timing.Topology(32, 32, 1), OpBroadcast, st, 1)
	if got := programCell(t, model, OpBroadcast, st, nB); !reflect.DeepEqual(got, fresh) {
		t.Errorf("broadcast after a 32x32 chip differs from a fresh chip:\nrecycled %+v\nfresh    %+v", summary(got), summary(fresh))
	}
	if parked := scc.DrainChipPool(); parked != 1 {
		t.Errorf("%d kits parked after a 32x32 and a 48-core cell, want the 48-core one only", parked)
	}
}

// summary is a print without its bulk, for failure messages.
func summary(p cellPrint) cellPrint {
	p.Metrics, p.Results = nil, nil
	return p
}

// TestParallelPanelsOnWarmPool: four runner goroutines adopting and
// parking kits concurrently reproduce the serial sweep bit for bit.
func TestParallelPanelsOnWarmPool(t *testing.T) {
	defer scc.DrainChipPool()
	m := timing.Default()
	sizes := []int{24, 52}
	scc.DrainChipPool()
	serial := NewRunner(1).Panels(m, AllOps(), sizes, 1)
	NewRunner(4).Panels(m, []Op{OpAlltoall}, sizes, 1) // park several kits, at their largest
	parallel := NewRunner(4).Panels(m, AllOps(), sizes, 1)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("4-worker panels on a warm pool differ from the serial sweep:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if scc.DrainChipPool() == 0 {
		t.Fatal("the sweeps left no kit parked: the pool was never warm")
	}
}

// TestFootprintIgnoresPoolState: MeasureFootprint reads the same
// footprint whatever the pool holds when it is called. Without the drain
// the chip is built on storage that is already in the baseline and the
// second reading collapses towards zero, far under any budget.
func TestFootprintIgnoresPoolState(t *testing.T) {
	defer scc.DrainChipPool()
	model := timing.Topology(32, 32, 1)
	scc.DrainChipPool()
	cold := MeasureFootprint(model) // parks its kit
	warm := MeasureFootprint(model)
	if warm.BytesPerCore < 0.8*cold.BytesPerCore || warm.BytesPerCore > 1.2*cold.BytesPerCore {
		t.Errorf("%d cores: %.0f B/core on a drained pool, %.0f with the same chip's kit parked", cold.Cores, cold.BytesPerCore, warm.BytesPerCore)
	}
}

// raceEnabled is set by race_on_test.go.
var raceEnabled bool

// TestWarmPoolCellAllocation pins the gain: on a pool warmed by one pass
// over the panel, a Fig. 9(f) cell — Allreduce of 552 doubles, every
// stack — allocates a fraction of what building 48 private memories and
// cache tables from nothing costs (~52 MB a cell before the arena).
func TestWarmPoolCellAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget under the race detector")
	}
	defer scc.DrainChipPool()
	model := timing.Default()
	for pass := 0; pass < 2; pass++ {
		for _, st := range StacksFor(OpAllreduce) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			Measure(model, OpAllreduce, st, 552, 1)
			runtime.ReadMemStats(&after)
			if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); pass > 0 && mb > 4 {
				t.Errorf("allreduce/%s n=552 on a warm pool allocates %.2f MB, budget 4", st.Name, mb)
			} else {
				t.Logf("pass %d allreduce/%s: %.2f MB", pass, st.Name, mb)
			}
		}
	}
}

// TestGCMCUnitAllocation pins, without a clock, that the application's
// host kernels keep their derived state instead of rebuilding it: one
// Fig. 10 bar at the paper's size (720 molecules, 276 k-vectors, 4
// cycles) on a fresh pool allocated 40.3 MB when every core built its
// own k-vector table from 2,601 candidates, cloned molecules and made
// four vectors a longEn call; it allocates about 16 now, nearly all of
// it the chip.
func TestGCMCUnitAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget under the race detector")
	}
	defer scc.DrainChipPool()
	scc.DrainChipPool()
	p := gcmc.DefaultParams()
	p.Cycles = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	RunGCMC(timing.Default(), GCMCStacks()[4], p)
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 20 {
		t.Errorf("one default-size GCMC unit allocates %.1f MB, budget 20", mb)
	} else {
		t.Logf("%.1f MB", mb)
	}
}
