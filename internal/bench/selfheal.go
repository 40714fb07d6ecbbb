package bench

import (
	"fmt"
	"io"

	"scc/internal/core"
	"scc/internal/fault"
	"scc/internal/rcce"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// This file measures the self-healing evaluation ("Fig. R2"): what a
// mid-collective core death costs when no oracle tells the survivors who
// died. Each sample kills one core at a fraction of the fault-free run
// and decomposes the end-to-end latency into detection (kill → the
// first wait that gave up on a peer), agreement (that give-up →
// committed membership) and re-execution, against two comparators: the
// same self-healing stack fault-free (its standing overhead is the
// outcome vote) and an oracle run where the survivor group is known for
// free. Everything is deterministic: same model, same kill point,
// bit-identical numbers.

// HealPoint is one sample of the self-healing sweep.
type HealPoint struct {
	Algo   string
	KillAt simtime.Duration // virtual kill time (0 = fault-free row)

	Plain    simtime.Duration // hardened transport, no self-healing, fault-free
	Overhead simtime.Duration // self-healing enabled, fault-free (vote cost)
	Oracle   simtime.Duration // survivors-only run with perfect knowledge
	Total    simtime.Duration // self-healing, victim killed at KillAt

	Detect simtime.Duration // kill → the first wait on any core that gave up on a peer
	Agree  simtime.Duration // that give-up → last committed agreement

	Reconfigs int64  // committed membership agreements (max over cores)
	Reexecs   int64  // collective re-executions (max over cores)
	Evicted   int64  // members dropped (max over cores)
	Epoch     uint32 // final communicator epoch
	Survivors int    // cores that completed with the survivor-group sum
	Errs      int    // cores that returned an error (typed, honest)
	Wrong     int    // cores that completed with an incorrect sum
}

// HealVictimFor picks the core killed by every faulted sample: core 17
// on the paper's chip (mid-chip, so its death stalls both ring
// neighbors and tree subtrees), clamped to mid-chip on meshes too small
// to have a core 17.
func HealVictimFor(numCores int) int {
	if numCores > 17 {
		return 17
	}
	return numCores / 2
}

// measureSelfHealAllreduce runs one full-chip Allreduce of n doubles under
// the self-healing runtime, with the victim killed at killAt (0 =
// fault-free), and reports latency, the aggregated recovery report and
// honest failure counts. Completed cores are checked against the sum of
// the group that actually committed: all cores when nobody died, the
// survivor set once the victim was evicted.
func measureSelfHealAllreduce(model *timing.Model, kind core.TransportKind, pol core.HealPolicy, algo string, n int, killAt simtime.Duration) HealPoint {
	p := model.NumCores()
	victim := HealVictimFor(p)
	var plan *fault.Plan
	if killAt > 0 {
		plan = fault.NewPlan().Add(fault.Fault{
			Kind: fault.CoreDie, At: simtime.Time(killAt), Core: victim,
		})
	}
	cfg := hardenedConfig(kind, algo)
	cfg.SelfHeal = &pol
	wantFull := allreduceWant(p, n, -1)
	wantSurv := allreduceWant(p, n, victim)

	pt := HealPoint{Algo: algo, KillAt: killAt}
	agg := core.RecoveryReport{FirstSuspectAt: -1, LastAgreeAt: -1}
	total, err := checkedAllreduce(model, cfg, plan, nil, n, func(o allreduceOutcome) {
		rep := o.x.Healer().Report()
		agg.Merge(rep)
		if o.x.UE().ID() == victim && killAt > 0 {
			return // the victim's error (if it got one) is not a survivor outcome
		}
		want := wantFull
		if killAt > 0 && rep.Evicted > 0 {
			want = wantSurv
		}
		switch {
		case o.err != nil:
			pt.Errs++
		case !o.holds(want):
			pt.Wrong++
		default:
			pt.Survivors++
		}
	})
	if err != nil {
		pt.Errs = p // a deadlock under self-healing is a bug; don't hide it
	}
	pt.Reconfigs, pt.Reexecs, pt.Evicted, pt.Epoch = agg.Reconfigs, agg.Reexecs, agg.Evicted, agg.Epoch
	pt.Total = total
	if killAt > 0 && agg.FirstSuspectAt >= 0 {
		pt.Detect = simtime.Duration(agg.FirstSuspectAt) - killAt
		if agg.LastAgreeAt > agg.FirstSuspectAt {
			pt.Agree = simtime.Duration(agg.LastAgreeAt - agg.FirstSuspectAt)
		}
	}
	return pt
}

// measureOracleAllreduce is the perfect-knowledge comparator: the
// victim never participates, every survivor runs the collective over
// the survivor group directly — no detection, no vote, no
// agreement. Its latency is the floor any recovery mechanism pays.
func measureOracleAllreduce(model *timing.Model, kind core.TransportKind, pol rcce.Policy, algo string, n int) simtime.Duration {
	cfg := hardenedConfig(kind, algo)
	cfg.Recovery = &pol
	g, err := core.Survivors(model.NumCores(), []int{HealVictimFor(model.NumCores())})
	if err != nil {
		panic(err) // static input; cannot fail
	}
	// The survivors do not read their result back: the floor is the
	// collective alone, and a priced read would move it.
	total, err := checkedAllreduce(model, cfg, nil, g, n, func(o allreduceOutcome) {
		if o.err != nil {
			panic(o.err) // fault-free oracle run must not fail
		}
	})
	if err != nil {
		panic(err)
	}
	return total
}

// selfHealRows measures one algorithm's rows of the self-healing sweep:
// the fault-free self-healing overhead, then the full recovery
// decomposition with the victim killed at each fraction of the plain
// fault-free latency. Kill times derive from the algorithm's own
// baseline, so "killed at 0.5" means mid-collective for every algorithm
// regardless of how long it runs.
func selfHealRows(model *timing.Model, kind core.TransportKind, pol core.HealPolicy, algo string, n int, fracs []float64) []HealPoint {
	// plain: the hardened-but-unhealed fault-free baseline.
	plain := measureFaultedAllreduce(model, kind, pol.Detect, algo, nil, n).Latency
	oracle := measureOracleAllreduce(model, kind, pol.Detect, algo, n)
	overhead := measureSelfHealAllreduce(model, kind, pol, algo, n, 0)
	overhead.Plain = plain
	overhead.Oracle = oracle
	overhead.Overhead = overhead.Total
	out := []HealPoint{overhead}
	for _, f := range fracs {
		killAt := simtime.Duration(float64(plain) * f)
		if killAt < 1 {
			killAt = 1
		}
		pt := measureSelfHealAllreduce(model, kind, pol, algo, n, killAt)
		pt.Plain = plain
		pt.Oracle = oracle
		pt.Overhead = overhead.Total
		out = append(out, pt)
	}
	return out
}

// WriteHealTable renders the self-healing sweep as an aligned table
// (the "Fig. R2" deliverable).
func WriteHealTable(w io.Writer, title string, points []HealPoint) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%9s  %10s  %10s  %10s  %10s  %10s  %10s  %5s  %5s  %4s  %4s  %4s\n",
		"algo", "killat", "plain", "oracle", "total", "detect", "agree", "recfg", "reexe", "surv", "errs", "bad"); err != nil {
		return err
	}
	for _, pt := range points {
		kill := "-"
		if pt.KillAt > 0 {
			kill = fmt.Sprintf("%.0fus", pt.KillAt.Micros())
		}
		detect, agree := "-", "-"
		if pt.KillAt > 0 {
			detect = fmt.Sprintf("%.0fus", pt.Detect.Micros())
			agree = fmt.Sprintf("%.0fus", pt.Agree.Micros())
		}
		total := pt.Total
		if pt.KillAt == 0 {
			total = pt.Overhead
		}
		if _, err := fmt.Fprintf(w, "%9s  %10s  %8.0fus  %8.0fus  %8.0fus  %10s  %10s  %5d  %5d  %4d  %4d  %4d\n",
			pt.Algo, kill, pt.Plain.Micros(), pt.Oracle.Micros(), total.Micros(),
			detect, agree, pt.Reconfigs, pt.Reexecs, pt.Survivors, pt.Errs, pt.Wrong); err != nil {
			return err
		}
	}
	return nil
}
