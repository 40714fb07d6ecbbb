package sccsim_test

import (
	"errors"
	"maps"
	"slices"
	"sync"
	"testing"

	sccsim "scc"
	"scc/internal/rcce"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// healRun executes reps Allreduce calls of n elements under
// self-healing with core victim killed at killAt, returning per-core
// final values, per-core errors, final member counts and the elapsed
// virtual time.
func healRun(t *testing.T, algo string, n, victim int, killAt sccsim.Duration, reps int) (map[int]float64, map[int]error, map[int]int, sccsim.Duration) {
	t.Helper()
	plan := sccsim.NewFaultPlan()
	plan.Add(sccsim.Fault{Kind: sccsim.FaultCoreDie, At: simtime.Time(killAt), Core: victim})
	h := healPlanRun(t, algo, n, plan, reps)
	return h.vals, h.errs, h.members, h.elapsed
}

// healOutcome is what one self-healing run under a fault plan leaves:
// per-core final values, errors and member counts, the system-wide
// healing report and the elapsed virtual time.
type healOutcome struct {
	vals    map[int]float64
	errs    map[int]error
	members map[int]int
	heal    sccsim.HealReport
	elapsed sccsim.Duration
}

// healPlanRun executes reps Allreduce calls of n elements (core i
// contributes i+1) under self-healing with the faults of plan.
func healPlanRun(t *testing.T, algo string, n int, plan *sccsim.FaultPlan, reps int) healOutcome {
	t.Helper()
	opts := []sccsim.Option{
		sccsim.WithFaults(plan),
		sccsim.WithSelfHealing(sccsim.DefaultHealPolicy()),
	}
	if algo != "" {
		opts = append(opts, sccsim.WithAlgorithm(algo))
	}
	sys := sccsim.New(opts...)

	var mu sync.Mutex
	out := healOutcome{vals: make(map[int]float64), errs: make(map[int]error), members: make(map[int]int)}
	res, err := sys.RunResult(func(r *sccsim.Rank) {
		src := r.AllocF64(n)
		dst := r.AllocF64(n)
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = float64(r.ID() + 1)
		}
		r.WriteF64s(src, buf)
		var rerr error
		for k := 0; k < reps && rerr == nil; k++ {
			rerr = r.Allreduce(src, dst, n)
		}
		got := make([]float64, 1)
		r.ReadF64s(dst, got)
		rep := r.HealReport()
		mu.Lock()
		out.vals[r.ID()] = got[0]
		out.errs[r.ID()] = rerr
		if rep != nil {
			out.members[r.ID()] = 48 - int(rep.Evicted)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("algo %q: run failed: %v", algo, err)
	}
	out.heal = *sys.Heal()
	out.elapsed = res.Elapsed()
	return out
}

// survivorSum is the Allreduce result over every core but the dead
// ones, each core contributing its ID+1.
func survivorSum(dead ...int) float64 {
	s := 0.0
	for id := 0; id < 48; id++ {
		if !slices.Contains(dead, id) {
			s += float64(id + 1)
		}
	}
	return s
}

// checkSurvivors fails unless every core outside dead completed without
// error and holds want.
func checkSurvivors(t *testing.T, h healOutcome, want float64, dead ...int) {
	t.Helper()
	for id := 0; id < 48; id++ {
		if slices.Contains(dead, id) {
			continue
		}
		if h.errs[id] != nil || h.vals[id] != want {
			t.Errorf("core %d: %v, dst = %v; want survivor sum %v", id, h.errs[id], h.vals[id], want)
		}
	}
}

// typedHealErr reports whether err is one of the typed errors a
// self-healing collective may return instead of a result.
func typedHealErr(err error) bool {
	return errors.Is(err, sccsim.ErrUnreachable) ||
		errors.Is(err, sccsim.ErrEvicted) ||
		errors.Is(err, sccsim.ErrNoQuorum) ||
		errors.Is(err, sccsim.ErrHealGiveUp)
}

// dieAt is a fault plan killing each listed core at its time.
func dieAt(kills map[int]sccsim.Duration) *sccsim.FaultPlan {
	plan := sccsim.NewFaultPlan()
	for core, at := range kills {
		plan.Add(sccsim.Fault{Kind: sccsim.FaultCoreDie, At: simtime.Time(at), Core: core})
	}
	return plan
}

// TestSelfHealingAllreduceCoreDeath is the tentpole acceptance check: a
// core killed mid-Allreduce with NO oracle (nobody calls DeadCores)
// must leave every survivor with a completed collective over the agreed
// survivor group, for every registered allreduce algorithm.
func TestSelfHealingAllreduceCoreDeath(t *testing.T) {
	const (
		n      = 2048
		victim = 17
		reps   = 4
	)
	killAt := sccsim.Microseconds(400) // inside the first few collectives
	for _, algo := range []string{"ring", "tree", "recdouble", "mpb", "linear"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			vals, errs, _, _ := healRun(t, algo, n, victim, killAt, reps)
			// Survivor sum: every core contributes ID+1; the victim's
			// contribution is gone from the re-executed epoch.
			want := 0.0
			for id := 0; id < 48; id++ {
				if id != victim {
					want += float64(id + 1)
				}
			}
			completed := 0
			for id := 0; id < 48; id++ {
				if id == victim {
					continue
				}
				err := errs[id]
				if err != nil {
					// A typed, honest error is permitted for cores on the
					// wrong side of an agreement window, never a wrong value.
					if !typedHealErr(err) {
						t.Fatalf("core %d: untyped error: %v", id, err)
					}
					continue
				}
				completed++
				if vals[id] != want {
					t.Errorf("core %d: dst = %v, want survivor sum %v", id, vals[id], want)
				}
			}
			// The quorum rule guarantees a strict majority completes.
			if completed < 48/2+1 {
				t.Fatalf("only %d cores completed, want a majority", completed)
			}
		})
	}
}

// TestSelfHealingDeterministic pins the reproducibility guarantee:
// same-seed (here: same plan) self-healing runs are bit-identical in
// results and virtual time.
func TestSelfHealingDeterministic(t *testing.T) {
	killAt := sccsim.Microseconds(350)
	v1, e1, _, t1 := healRun(t, "ring", 1024, 11, killAt, 3)
	v2, e2, _, t2 := healRun(t, "ring", 1024, 11, killAt, 3)
	if t1 != t2 {
		t.Fatalf("elapsed differs across identical runs: %d vs %d ticks", t1, t2)
	}
	for id := 0; id < 48; id++ {
		if v1[id] != v2[id] {
			t.Errorf("core %d: value differs: %v vs %v", id, v1[id], v2[id])
		}
		if (e1[id] == nil) != (e2[id] == nil) {
			t.Errorf("core %d: error presence differs: %v vs %v", id, e1[id], e2[id])
		}
	}
}

// TestCoreDeathWithoutRecoveryTyped (satellite): mid-run core death
// with no recovery configured must surface a typed ErrCoreDead from
// Run, not a bare deadlock report.
func TestCoreDeathWithoutRecoveryTyped(t *testing.T) {
	plan := sccsim.NewFaultPlan()
	plan.Add(sccsim.Fault{Kind: sccsim.FaultCoreDie, At: simtime.Time(sccsim.Microseconds(200)), Core: 5})
	sys := sccsim.New(sccsim.WithFaults(plan))
	err := sys.Run(func(r *sccsim.Rank) {
		src := r.AllocF64(512)
		dst := r.AllocF64(512)
		for k := 0; k < 4; k++ {
			if err := r.Allreduce(src, dst, 512); err != nil {
				return
			}
		}
	})
	if err == nil {
		t.Fatal("run with a dead core and no recovery unexpectedly succeeded")
	}
	if !errors.Is(err, sccsim.ErrCoreDead) {
		t.Fatalf("err = %v, want errors.Is(err, ErrCoreDead)", err)
	}
}

// TestSelfHealVoteRootDeath: the outcome vote's root (core 0) dies
// mid-Allreduce, so nobody collects the vote and no view rides on its
// release. Every member times out; agreement round 1 is rooted at the
// dead core again and times out too, and round 2, rooted at core 1,
// carries the 47 arrivals as the view of epoch 3. The elapsed time is
// pinned: two padded 4B rounds and a commit in the third.
func TestSelfHealVoteRootDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates seconds of virtual agreement timeouts")
	}
	kill := map[int]sccsim.Duration{0: sccsim.Microseconds(300)}
	a := healPlanRun(t, "", 552, dieAt(kill), 1)
	b := healPlanRun(t, "", 552, dieAt(kill), 1)
	checkSurvivors(t, a, 1175, 0)
	if a.heal.Evicted != 1 || a.heal.Reconfigs != 1 {
		t.Errorf("heal report %+v, want 1 evicted in 1 reconfiguration", a.heal)
	}
	if a.elapsed != b.elapsed || !maps.Equal(a.vals, b.vals) {
		t.Fatalf("reruns differ: %d vs %d ticks", a.elapsed, b.elapsed)
	}
	if a.elapsed != voteRootDeathTicks {
		t.Errorf("elapsed %d ticks (%v), want %d", a.elapsed, a.elapsed, voteRootDeathTicks)
	}
}

// TestSelfHealTwoDeaths: two cores die inside one collective. Both are
// missing from the vote, so the view the vote root publishes excludes
// both and one agreement heals them. In the window case the second core
// dies after it voted: the view on the vote's release still holds it,
// its epoch barrier fails, and agreement round 1, rooted at core 0
// again, carries the 46 live arrivals.
func TestSelfHealTwoDeaths(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates seconds of virtual agreement timeouts")
	}
	for _, tc := range []struct {
		name   string
		second sccsim.Duration
		limit  sccsim.Duration
		epoch  uint32
	}{
		{"same-collective", sccsim.Microseconds(350), sccsim.Microseconds(340_000), 1},
		// Round 1 proposes the epoch after the failed view's, so no
		// arrival at that view's barrier counts at the next one.
		{"after-voting", sccsim.Microseconds(300_000), sccsim.Microseconds(1_360_000), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := healPlanRun(t, "", 552, dieAt(map[int]sccsim.Duration{17: sccsim.Microseconds(300), 30: tc.second}), 1)
			checkSurvivors(t, h, 1127, 17, 30)
			if h.heal.Evicted != 2 || h.heal.Reconfigs != 1 || h.heal.Epoch != tc.epoch {
				t.Errorf("heal report %+v, want 2 evicted in 1 reconfiguration, epoch %d", h.heal, tc.epoch)
			}
			if h.elapsed >= tc.limit {
				t.Errorf("elapsed %v, want < %v", h.elapsed, tc.limit)
			}
		})
	}
}

// TestSelfHealLateMemberEvicted: a live core stalled past the vote
// root's collection (core 9, 700 ms from 1.5 ms, while core 17 dies)
// finds the survivors' view on the vote release when it comes back. It
// is not in it, so it gets ErrEvicted at once instead of running the
// agreement rounds alone until ErrNoQuorum.
func TestSelfHealLateMemberEvicted(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates seconds of virtual agreement timeouts")
	}
	plan := dieAt(map[int]sccsim.Duration{17: sccsim.Microseconds(300)})
	plan.Add(sccsim.Fault{Kind: sccsim.FaultCoreStall, At: simtime.Time(sccsim.Microseconds(1500)),
		Dur: simtime.Duration(sccsim.Microseconds(700_000)), Core: 9})
	h := healPlanRun(t, "", 552, plan, 1)
	if !errors.Is(h.errs[9], sccsim.ErrEvicted) {
		t.Errorf("stalled core 9: %v, want ErrEvicted", h.errs[9])
	}
	checkSurvivors(t, h, survivorSum(9, 17), 9, 17)
	if h.elapsed >= sccsim.Microseconds(1_000_000) {
		t.Errorf("elapsed %v, want < 1 s", h.elapsed)
	}
}

// TestSelfHealLateVoterMargin pins the HealPolicy.Member contract from
// both sides: the vote root collects for one unit B (254 ms), so a live
// member entering the vote less than B after it is kept, and one
// entering later is evicted. Core 17 dies at 300 µs and core 9 stalls
// from 1.5 ms: a 250 ms stall leaves it inside the collection, a 300 ms
// stall outside it, where it finds the 46 survivors' view on the
// release and gets ErrEvicted, never a wrong sum.
func TestSelfHealLateVoterMargin(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates seconds of virtual agreement timeouts")
	}
	for _, tc := range []struct {
		name  string
		stall sccsim.Duration
		kept  bool
	}{
		{"inside-B", sccsim.Microseconds(250_000), true},
		{"past-B", sccsim.Microseconds(300_000), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := func() *sccsim.FaultPlan {
				p := dieAt(map[int]sccsim.Duration{17: sccsim.Microseconds(300)})
				return p.Add(sccsim.Fault{Kind: sccsim.FaultCoreStall, At: simtime.Time(sccsim.Microseconds(1500)),
					Dur: simtime.Duration(tc.stall), Core: 9})
			}
			a := healPlanRun(t, "", 552, plan(), 1)
			b := healPlanRun(t, "", 552, plan(), 1)
			if a.elapsed != b.elapsed || !maps.Equal(a.vals, b.vals) {
				t.Fatalf("reruns differ: %d vs %d ticks", a.elapsed, b.elapsed)
			}
			if tc.kept {
				checkSurvivors(t, a, survivorSum(17), 17)
				if a.heal.Evicted != 1 {
					t.Errorf("heal report %+v, want only the dead core evicted", a.heal)
				}
				return
			}
			if !errors.Is(a.errs[9], sccsim.ErrEvicted) {
				t.Errorf("late core 9: %v, want ErrEvicted", a.errs[9])
			}
			checkSurvivors(t, a, survivorSum(9, 17), 9, 17)
			if a.heal.Evicted != 2 {
				t.Errorf("heal report %+v, want the dead and the late core evicted", a.heal)
			}
			if a.elapsed != lateVoterEvictedTicks {
				t.Errorf("elapsed %d ticks (%v), want %d", a.elapsed, a.elapsed, lateVoterEvictedTicks)
			}
		})
	}
}

// TestSelfHealDroppedVoteArrival: a core's vote arrival (a flag write
// into core 0's MPB, the vote root's) is lost while core 17 dies. Core
// 12 enters the vote 0.3 ms before the root, core 15 last, 11 ms after
// it. Each raises its arrival again when no verdict came within the
// Member policy's first window, well inside the root's one-unit
// collection, so the root's view keeps the live core and 47 survivors
// finish. Raised only after a full B, core 15's arrival would land past
// the root's deadline and evict it.
func TestSelfHealDroppedVoteArrival(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates seconds of virtual agreement timeouts")
	}
	for _, tc := range []struct {
		name string
		core int
	}{
		{"before-root", 12},
		{"last", 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := dieAt(map[int]sccsim.Duration{17: sccsim.Microseconds(300)})
			plan.Add(sccsim.Fault{Kind: sccsim.FaultFlagDrop, Core: tc.core,
				Off: tc.core*timing.Default().FlagBytesPerWriter() + rcce.FlagVoteArrive})
			h := healPlanRun(t, "", 552, plan, 1)
			if ev := plan.Events(); len(ev) != 2 {
				t.Fatalf("fired %v, want the death and the dropped arrival", ev)
			}
			checkSurvivors(t, h, survivorSum(17), 17)
			if h.heal.Evicted != 1 || h.elapsed >= sccsim.Microseconds(340_000) {
				t.Errorf("heal report %+v after %v, want 1 evicted within 0.34 s", h.heal, h.elapsed)
			}
		})
	}
}

// TestSelfHealStallWithoutDeath: core 9 stalls 100 ms inside the
// Allreduce, so its peers give up on it and the collective fails, but
// nobody dies and every member arrives at the outcome vote. The root,
// which failed the vote with all 48 arrivals, carries them as the view:
// one epoch later the same 48 cores re-execute, in < 0.2 s. A root that
// carried only views missing a member would never carry here, in this
// round or any later one, and every member would end in ErrNoQuorum.
func TestSelfHealStallWithoutDeath(t *testing.T) {
	plan := sccsim.NewFaultPlan().Add(sccsim.Fault{Kind: sccsim.FaultCoreStall,
		At: simtime.Time(sccsim.Microseconds(300)), Dur: simtime.Duration(sccsim.Microseconds(100_000)), Core: 9})
	h := healPlanRun(t, "", 552, plan, 1)
	checkSurvivors(t, h, survivorSum())
	if h.heal.Evicted != 0 || h.heal.Reconfigs != 1 || h.heal.Epoch != 1 {
		t.Errorf("heal report %+v, want 0 evicted in 1 reconfiguration, epoch 1", h.heal)
	}
	if h.elapsed >= sccsim.Microseconds(200_000) {
		t.Errorf("elapsed %v, want < 0.2 s", h.elapsed)
	}
}

// TestSelfHealDeathInAgreement: a second core dies inside the agreement
// rounds that follow a dead vote root (core 0). In the first case it is
// core 1, the root of round 2, so round 3 (rooted at core 2) carries the
// view. In the second it is core 30, after it arrived at round 2: the
// view round 2 carries still holds it, its epoch barrier fails, and
// round 3 carries the 46 live arrivals. Both cost four rounds (3.386 s)
// and commit epoch 4; the pinned times differ only in the third round's
// commit.
func TestSelfHealDeathInAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates seconds of virtual agreement timeouts")
	}
	for _, tc := range []struct {
		name   string
		second int
		at     sccsim.Duration
		ticks  sccsim.Duration
	}{
		{"next-root", 1, sccsim.Microseconds(1_500_000), 5417830270},
		{"after-arriving", 30, sccsim.Microseconds(2_300_000), 5417820251},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kill := map[int]sccsim.Duration{0: sccsim.Microseconds(300), tc.second: tc.at}
			a := healPlanRun(t, "", 552, dieAt(kill), 1)
			b := healPlanRun(t, "", 552, dieAt(kill), 1)
			for id, err := range a.errs {
				if err != nil && !typedHealErr(err) {
					t.Errorf("core %d: untyped error: %v", id, err)
				}
			}
			checkSurvivors(t, a, survivorSum(0, tc.second), 0, tc.second)
			if a.heal.Evicted != 2 || a.heal.Reconfigs != 1 || a.heal.Epoch != 4 {
				t.Errorf("heal report %+v, want 2 evicted in 1 reconfiguration at epoch 4", a.heal)
			}
			if a.elapsed != b.elapsed || !maps.Equal(a.vals, b.vals) {
				t.Fatalf("reruns differ: %d vs %d ticks", a.elapsed, b.elapsed)
			}
			if a.elapsed != tc.ticks {
				t.Errorf("elapsed %d ticks (%v), want %d", a.elapsed, a.elapsed, tc.ticks)
			}
		})
	}
}

// TestSelfHealHalfChipLoss: cores 24-47 die together, so no round can
// gather a majority of the 48 members. Every survivor runs all n + 2
// agreement rounds and returns ErrNoQuorum, none a result.
func TestSelfHealHalfChipLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates seconds of virtual agreement timeouts")
	}
	kill := make(map[int]sccsim.Duration)
	for id := 24; id < 48; id++ {
		kill[id] = sccsim.Microseconds(300)
	}
	a := healPlanRun(t, "", 552, dieAt(kill), 1)
	b := healPlanRun(t, "", 552, dieAt(kill), 1)
	for id := 0; id < 24; id++ {
		if !errors.Is(a.errs[id], sccsim.ErrNoQuorum) {
			t.Errorf("core %d: %v, dst = %v; want ErrNoQuorum", id, a.errs[id], a.vals[id])
		}
	}
	if a.elapsed != b.elapsed || !maps.Equal(a.vals, b.vals) {
		t.Fatalf("reruns differ: %d vs %d ticks", a.elapsed, b.elapsed)
	}
	if a.elapsed != halfChipLossTicks {
		t.Errorf("elapsed %d ticks (%v), want %d", a.elapsed, a.elapsed, halfChipLossTicks)
	}
}

// TestSelfHealDetectionSurvivesRunBoundary: core 17 dies in Run 1 and
// Run 2 is fault-free. The façade gives every Run fresh UEs, so the
// detection time — the first exhausted retry budget, recorded on the
// Run 1 UEs — survives only because the healer folds it in before
// binding the Run 2 UE. System a reads Heal between the two Runs (which
// folds it too), system b only after Run 2.
func TestSelfHealDetectionSurvivesRunBoundary(t *testing.T) {
	const victim = 17
	twoRuns := func(readBetween bool) (run1, run2 sccsim.HealReport, giveUps []rcce.RecoveryStats) {
		plan := sccsim.NewFaultPlan().Add(sccsim.Fault{Kind: sccsim.FaultCoreDie,
			At: simtime.Time(sccsim.Microseconds(400)), Core: victim})
		sys := sccsim.New(sccsim.WithFaults(plan), sccsim.WithSelfHealing(sccsim.DefaultHealPolicy()))
		giveUps = make([]rcce.RecoveryStats, 48)
		for run := 1; run <= 2; run++ {
			err := sys.Run(func(r *sccsim.Rank) {
				src, dst := r.AllocF64(552), r.AllocF64(552)
				if err := r.Allreduce(src, dst, 552); err != nil {
					t.Errorf("run %d, core %d: %v", run, r.ID(), err)
				}
				if run == 1 {
					giveUps[r.ID()] = r.Recovery()
				} else if s := r.Recovery(); s.GiveUps != 0 {
					t.Errorf("fault-free run 2, core %d: %d give-ups", r.ID(), s.GiveUps)
				}
			})
			if err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			if run == 1 && readBetween {
				run1 = *sys.Heal()
			}
		}
		return run1, *sys.Heal(), giveUps
	}

	run1, run2a, giveUps := twoRuns(true)
	_, run2b, _ := twoRuns(false)
	first := simtime.Time(-1)
	for id, s := range giveUps {
		if id != victim && s.GiveUps > 0 && (first < 0 || s.FirstGiveUp < first) {
			first = s.FirstGiveUp
		}
	}
	if first < 0 || first <= simtime.Time(sccsim.Microseconds(400)) {
		t.Fatalf("earliest Run 1 give-up at %d, want one after the kill", first)
	}
	if run1.FirstSuspectAt != first {
		t.Errorf("after Run 1: FirstSuspectAt %d, want the earliest give-up %d", run1.FirstSuspectAt, first)
	}
	if run2a.FirstSuspectAt != run1.FirstSuspectAt || run2b.FirstSuspectAt != run1.FirstSuspectAt {
		t.Errorf("after Run 2: FirstSuspectAt %d (read between) and %d (not read), want %d",
			run2a.FirstSuspectAt, run2b.FirstSuspectAt, run1.FirstSuspectAt)
	}
}

// Pinned elapsed times of agreement paths: TestSelfHealVoteRootDeath
// (2.377 s, two padded rounds and a commit in the third),
// TestSelfHealHalfChipLoss (50.889 s, all 50 rounds padded) and
// TestSelfHealLateVoterMargin's evicted case (0.382 s, one carried view).
const (
	voteRootDeathTicks    = 3803724534
	halfChipLossTicks     = 81422321041
	lateVoterEvictedTicks = 611289443
)
