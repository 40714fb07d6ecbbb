package fault

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"scc/internal/core"
	"scc/internal/mesh"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// makeInputs builds deterministic per-core input vectors.
func makeInputs(p, n int, scale float64) [][]float64 {
	in := make([][]float64, p)
	for id := range in {
		v := make([]float64, n)
		for i := range v {
			v[i] = scale*float64(id+1) + float64(i)*0.25
		}
		in[id] = v
	}
	return in
}

func sumRef(in [][]float64) []float64 {
	want := make([]float64, len(in[0]))
	for _, v := range in {
		for i, x := range v {
			want[i] += x
		}
	}
	return want
}

// runRobustAllreduce runs a 48-core 552-double Allreduce over the
// hardened lightweight balanced configuration with the given plan
// installed, returning the end time, the chip-wide recovery stats and
// the fired fault events.
func runRobustAllreduce(t *testing.T, plan *Plan, n int) (simtime.Time, rcce.RecoveryStats, []Event) {
	t.Helper()
	chip := scc.New(timing.Default())
	Install(chip, plan)
	comm := rcce.NewComm(chip)
	pol := rcce.DefaultPolicy()
	cfg := core.Config{Transport: core.TransportLightweight, Balanced: true, Recovery: &pol}
	in := makeInputs(48, n, 7)
	want := sumRef(in)
	var stats rcce.RecoveryStats
	chip.Launch(func(c *scc.Core) {
		x := core.NewCtx(comm.UE(c.ID), cfg)
		src := c.AllocF64(n)
		dst := c.AllocF64(n)
		c.WriteF64s(src, in[c.ID])
		if err := x.Allreduce(src, dst, n, core.Sum); err != nil {
			t.Errorf("core %d Allreduce: %v", c.ID, err)
			return
		}
		got := make([]float64, n)
		c.ReadF64s(dst, got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Errorf("core %d element %d = %v, want %v", c.ID, i, got[i], want[i])
				return
			}
		}
		stats.Add(x.UE().Recovery())
	})
	if err := chip.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return chip.Now(), stats, plan.Events()
}

// acceptancePlan schedules the ISSUE's acceptance faults relative to the
// fault-free run length: three transient link stalls on busy row-0 ring
// links plus one lost flag write (core 5's sent announcement to its ring
// neighbor, at MPB offset sentOff — the write whose loss stalls the
// pipeline until the sender's bounded wait expires and it retransmits).
func acceptancePlan(horizon simtime.Time, sentOff int) *Plan {
	h := simtime.Duration(horizon)
	stall := simtime.Microseconds(10)
	return NewPlan().
		Add(Fault{Kind: LinkStall, At: simtime.Time(h / 8), Dur: stall,
			From: mesh.Coord{X: 0, Y: 0}, To: mesh.Coord{X: 1, Y: 0}}).
		Add(Fault{Kind: LinkStall, At: simtime.Time(h / 4), Dur: stall,
			From: mesh.Coord{X: 1, Y: 0}, To: mesh.Coord{X: 2, Y: 0}}).
		Add(Fault{Kind: LinkStall, At: simtime.Time(3 * h / 8), Dur: stall,
			From: mesh.Coord{X: 2, Y: 0}, To: mesh.Coord{X: 3, Y: 0}}).
		// The lost flag write goes last: its timeout+retransmit recovery
		// quiesces the mesh for a while, which would starve later link
		// stalls of traffic to delay.
		Add(Fault{Kind: FlagDrop, At: simtime.Time(5 * h / 8), Core: 5, Off: sentOff})
}

// TestAllreduceRecoversFromAcceptanceFaults is the ISSUE's headline
// acceptance scenario: a seeded plan injecting three transient link
// faults and one lost flag write into a 48-core, 552-double Allreduce.
// The hardened collective completes with correct sums, the recovery
// latency is measured, there is no deadlock — and a second run of the
// same plan is tick-for-tick identical.
func TestAllreduceRecoversFromAcceptanceFaults(t *testing.T) {
	const n = 552
	base, baseStats, _ := runRobustAllreduce(t, NewPlan(), n)
	if baseStats.Timeouts != 0 || baseStats.Retransmits != 0 {
		t.Fatalf("fault-free run did defensive work: %+v", baseStats)
	}
	// Flag layout is a pure function of the model, so any chip's comm
	// gives the offset of core 5's sent announcement to core 6.
	sentOff := rcce.NewComm(scc.New(timing.Default())).FlagAddr(6, 5, rcce.FlagSent)

	end1, stats1, ev1 := runRobustAllreduce(t, acceptancePlan(base, sentOff), n)
	if len(ev1) != 4 {
		t.Fatalf("want all 4 faults to fire, got %d: %v", len(ev1), ev1)
	}
	if stats1.Timeouts == 0 || stats1.Retransmits == 0 {
		t.Fatalf("lost flag write not recovered by retransmission: %+v", stats1)
	}
	if stats1.Recovery <= 0 {
		t.Fatalf("recovery latency not measured: %+v", stats1)
	}
	if end1 <= base {
		t.Fatalf("faulted run (%v) not slower than fault-free run (%v)", end1, base)
	}

	end2, stats2, ev2 := runRobustAllreduce(t, acceptancePlan(base, sentOff), n)
	if end1 != end2 || stats1 != stats2 {
		t.Fatalf("recovery not deterministic:\n run1 %v %+v\n run2 %v %+v", end1, stats1, end2, stats2)
	}
	if fmt.Sprint(ev1) != fmt.Sprint(ev2) {
		t.Fatalf("fault histories differ:\n%v\n%v", ev1, ev2)
	}
}

// TestAllreduceSurvivesCoreDeath kills one core outright; the remaining
// 47 rebuild the communicator (ring and partition excluded the dead
// core) and complete the Allreduce with correct sums.
func TestAllreduceSurvivesCoreDeath(t *testing.T) {
	const dead = 17
	const n = 552
	plan := NewPlan().Add(Fault{Kind: CoreDie, At: 0, Core: dead})
	chip := scc.New(timing.Default())
	Install(chip, plan)
	comm := rcce.NewComm(chip)
	g, err := core.Survivors(chip.NumCores(), plan.DeadCores())
	if err != nil {
		t.Fatal(err)
	}
	pol := rcce.DefaultPolicy()
	cfg := core.Config{Transport: core.TransportLightweight, Balanced: true, Recovery: &pol}
	in := makeInputs(48, n, 3)
	want := make([]float64, n)
	for id := 0; id < 48; id++ {
		if id == dead {
			continue
		}
		for i, v := range in[id] {
			want[i] += v
		}
	}
	completed := 0
	chip.Launch(func(c *scc.Core) {
		if c.ID == dead {
			// The doomed core touches its MPB and never returns.
			c.MPBWriteF64s(comm.DataBase(c.ID), []float64{1})
			t.Errorf("core %d survived its own death", c.ID)
			return
		}
		x, err := core.NewCtxWith(comm.UE(c.ID), cfg, core.CtxOpts{Group: g})
		if err != nil {
			t.Errorf("NewCtxWith: %v", err)
			return
		}
		src := c.AllocF64(n)
		dst := c.AllocF64(n)
		c.WriteF64s(src, in[c.ID])
		if err := x.Allreduce(src, dst, n, core.Sum); err != nil {
			t.Errorf("core %d Allreduce: %v", c.ID, err)
			return
		}
		got := make([]float64, n)
		c.ReadF64s(dst, got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Errorf("core %d element %d = %v, want %v", c.ID, i, got[i], want[i])
				return
			}
		}
		completed++
	})
	if err := chip.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !chip.Cores[dead].Dead() {
		t.Fatal("core 17 should be dead")
	}
	if completed != 47 {
		t.Fatalf("completed = %d, want 47 survivors", completed)
	}
	evs := plan.Events()
	if len(evs) != 1 || evs[0].Kind != CoreDie {
		t.Fatalf("events = %v, want one core-die", evs)
	}
}

// TestHangNamesFaultSite checks the diagnosability requirement: when a
// NON-hardened protocol hangs because of an injected fault, the deadlock
// report names the exact fault site (the MPB flag offset whose write was
// lost).
func TestHangNamesFaultSite(t *testing.T) {
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	sentOff := comm.FlagAddr(1, 0, rcce.FlagSent)
	plan := NewPlan().Add(Fault{Kind: FlagDrop, At: 0, Core: 0, Off: sentOff})
	Install(chip, plan)
	chip.LaunchOne(0, func(c *scc.Core) {
		u := comm.UE(0)
		a := c.AllocF64(8)
		u.Send(1, a, 64) // sent-flag announcement is dropped: hangs
	})
	chip.LaunchOne(1, func(c *scc.Core) {
		u := comm.UE(1)
		a := c.AllocF64(8)
		u.Recv(0, a, 64)
	})
	err := chip.Run()
	if err == nil {
		t.Fatal("expected a deadlock")
	}
	site := fmt.Sprintf("flag@%d", sentOff)
	if !strings.Contains(err.Error(), site) {
		t.Fatalf("deadlock report does not name fault site %q:\n%v", site, err)
	}
	evs := plan.Events()
	if len(evs) != 1 || !strings.Contains(evs[0].Site, site) {
		t.Fatalf("fault event does not record site %q: %v", site, evs)
	}
}

// TestRandomPlanShape checks the seeded generator: n recoverable faults,
// never a core death, and the same seed produces the same schedule.
func TestRandomPlanShape(t *testing.T) {
	m := timing.Default()
	h := simtime.Microseconds(2000)
	p1 := Random(42, 25, h, m)
	p2 := Random(42, 25, h, m)
	if p1.Len() != 25 || p2.Len() != 25 {
		t.Fatalf("Len = %d/%d, want 25", p1.Len(), p2.Len())
	}
	if len(p1.DeadCores()) != 0 {
		t.Fatalf("Random generated core deaths: %v", p1.DeadCores())
	}
	for i := range p1.faults {
		if *p1.faults[i] != *p2.faults[i] {
			t.Fatalf("fault %d differs across same-seed plans:\n%+v\n%+v", i, p1.faults[i], p2.faults[i])
		}
	}
	if Random(43, 25, h, m).faults[0].At == p1.faults[0].At &&
		*Random(43, 25, h, m).faults[0] == *p1.faults[0] {
		t.Fatal("different seeds produced an identical first fault")
	}
}
