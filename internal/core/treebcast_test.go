package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"scc/internal/fault"
	"scc/internal/metrics"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
	"scc/internal/trace"
)

// treeEveryRoot runs, on a 128-core chip above the paper chip, a tree
// Broadcast from every root followed by a tree Allreduce of fresh inputs,
// and checks both against a host oracle on every core. With instrument
// set the chip carries a metrics registry and span recorders. It returns
// every core's finish tick and the registry (nil when not instrumented).
func treeEveryRoot(t *testing.T, instrument bool) ([]simtime.Time, *metrics.Registry) {
	t.Helper()
	const n = 5 // a partial line
	model := timing.Topology(8, 8, 2)
	chip := scc.New(model)
	defer chip.Release()
	p := chip.NumCores()
	var reg *metrics.Registry
	var rec *trace.Recorder
	if instrument {
		reg, rec = metrics.New(p), &trace.Recorder{}
		chip.SetMetrics(reg)
	}
	comm := rcce.NewComm(chip)
	cfg := ConfigLightweight
	cfg.Selector = Fixed("tree")
	finish := make([]simtime.Time, p)
	chip.Launch(func(c *scc.Core) {
		if rec != nil {
			c.SetSpanRecorder(rec.Hook(c.ID))
		}
		x := NewCtx(comm.UE(c.ID), cfg)
		defer x.Release()
		buf, src, dst := c.AllocF64(n), c.AllocF64(n), c.AllocF64(n)
		got := make([]float64, n)
		check := func(k OpKind, root int, in [][]float64, at scc.Addr, err error) {
			c.ReadF64s(at, got)
			if err != nil || fmt.Sprint(got) != fmt.Sprint(reference(k, root, p, in)[c.ID]) {
				t.Errorf("root %d %v: core %d got %v (err %v)", root, k, c.ID, got, err)
			}
		}
		for root := 0; root < p; root++ {
			in := dyadicInputs(int64(root), p, n)
			c.WriteF64s(buf, in[c.ID])
			c.WriteF64s(src, in[c.ID])
			check(KindBroadcast, root, in, buf, x.Broadcast(root, buf, n))
			check(KindAllreduce, root, in, dst, x.Allreduce(src, dst, n, Sum))
		}
		finish[c.ID] = c.Now()
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	return finish, reg
}

// TestTreeBroadcastAboveChipEveryRoot checks the stage-once tree
// Broadcast and the tree Allreduce built on it through Ctx on 128 cores,
// for every root: results against the host oracle, the same ticks with
// and without instrumentation, and each collective's phases summing to
// its elapsed time.
func TestTreeBroadcastAboveChipEveryRoot(t *testing.T) {
	plain, _ := treeEveryRoot(t, false)
	inst, reg := treeEveryRoot(t, true)
	if fmt.Sprint(plain) != fmt.Sprint(inst) {
		t.Fatal("instrumented run finished on different ticks than the plain one")
	}
	labels := ""
	for _, col := range reg.Snapshot().Collectives {
		labels += col.Label + " "
		sum := int64(0)
		for _, d := range col.Phases {
			sum += d
		}
		if sum != col.Ticks {
			t.Errorf("%s: phases sum to %d ticks, elapsed %d", col.Label, sum, col.Ticks)
		}
	}
	if labels != "allreduce[tree] broadcast[tree] " {
		t.Errorf("collectives recorded: %q", labels)
	}
}

// TestTreeBroadcastDroppedReleaseNamesEdge drops core 0's release to its
// largest subtree (core 32) in a 64-core tree Broadcast on a plain
// transport. Core 32's subtree can never proceed, so the run must end in
// ErrDeadlock, with core 0's last step naming the edge it waits on, and
// every core that did return must hold the payload.
func TestTreeBroadcastDroppedReleaseNamesEdge(t *testing.T) {
	chip := scc.New(timing.Topology(8, 8, 1))
	defer chip.Release()
	comm := rcce.NewComm(chip)
	release := comm.FlagAddr(32, 0, rcce.FlagBcastRelease)
	plan := fault.NewPlan().Add(fault.Fault{Kind: fault.FlagDrop, Core: 0, Off: release})
	fault.Install(chip, plan)
	payload := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	returned := 0
	chip.Launch(func(c *scc.Core) {
		x := NewCtx(comm.UE(c.ID), ConfigLightweight)
		buf := c.AllocF64(len(payload))
		if c.ID == 0 {
			c.WriteF64s(buf, payload)
		}
		if err := x.Broadcast(0, buf, len(payload)); err != nil {
			t.Errorf("core %d: %v", c.ID, err)
		}
		got := make([]float64, len(payload))
		c.ReadF64s(buf, got)
		if fmt.Sprint(got) != fmt.Sprint(payload) {
			t.Errorf("core %d returned with %v", c.ID, got)
		}
		returned++
	})
	err := chip.Run()
	if !errors.Is(err, simtime.ErrDeadlock) {
		t.Fatalf("run ended with %v, want ErrDeadlock", err)
	}
	if edge := "bcast->32: 64/64 B released"; !strings.Contains(err.Error(), edge) {
		t.Errorf("deadlock report does not name the edge %q:\n%v", edge, err)
	}
	if want := 64 - 32 - 1; returned != want { // everyone but the root and core 32's subtree
		t.Errorf("%d cores returned, want %d", returned, want)
	}
	if evs := plan.Events(); len(evs) != 1 {
		t.Errorf("fault events %v, want the one dropped release", evs)
	}
}
