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

// This file measures the robustness evaluation ("Fig. R1"): completion
// latency of a hardened full-chip Allreduce as a function of the injected
// fault count, per transport. Faults are drawn deterministically from a
// seed, so every point — including the measured recovery latency — is
// bit-identical across runs with the same seed.

// FaultPoint is one sample of the fault-rate sweep.
type FaultPoint struct {
	Faults  int                // injected fault count
	Fired   int                // faults that actually took effect
	Latency simtime.Duration   // completion latency of the collective
	Stats   rcce.RecoveryStats // chip-wide recovery work
	Errs    int                // cores whose collective returned an error
	Wrong   int                // cores that completed with incorrect sums
}

// measureFaultedAllreduce runs one hardened full-chip Allreduce of n
// doubles under the given plan (nil = fault-free) and reports completion
// latency, aggregated recovery statistics and honest failure counts. A
// non-empty algo pins the registry algorithm (see hardenedConfig).
func measureFaultedAllreduce(model *timing.Model, kind core.TransportKind, pol rcce.Policy, algo string, plan *fault.Plan, n int) FaultPoint {
	cfg := hardenedConfig(kind, algo)
	cfg.Recovery = &pol
	p := model.NumCores()
	want := allreduceWant(p, n, -1)
	var pt FaultPoint
	lat, err := checkedAllreduce(model, cfg, plan, nil, n, func(o allreduceOutcome) {
		pt.Stats.Add(o.x.UE().Recovery())
		switch {
		case o.err != nil:
			pt.Errs++ // honest: this core gave up (e.g. rcce.ErrUnreachable)
		case !o.holds(want):
			pt.Wrong++
		}
	})
	if err != nil {
		// A deadlock under the hardened protocol would be a bug; count
		// every core as failed rather than hiding it.
		pt.Errs = p
	}
	if plan != nil {
		pt.Fired = len(plan.Events())
	}
	pt.Latency = lat
	return pt
}

// WriteFaultTable renders one transport's sweep as an aligned table
// (the "Fig. R1" deliverable).
func WriteFaultTable(w io.Writer, title string, points []FaultPoint) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%8s  %8s  %12s  %9s  %8s  %11s  %11s  %6s  %6s\n",
		"faults", "fired", "latency", "slowdown", "timeouts", "retransmits", "recovery", "errs", "wrong"); err != nil {
		return err
	}
	var base float64
	for i, pt := range points {
		if i == 0 {
			base = pt.Latency.Micros()
		}
		slow := 0.0
		if base > 0 {
			slow = pt.Latency.Micros() / base
		}
		if _, err := fmt.Fprintf(w, "%8d  %8d  %10.2fus  %8.2fx  %8d  %11d  %9.2fus  %6d  %6d\n",
			pt.Faults, pt.Fired, pt.Latency.Micros(), slow,
			pt.Stats.Timeouts, pt.Stats.Retransmits, pt.Stats.Recovery.Micros(),
			pt.Errs, pt.Wrong); err != nil {
			return err
		}
	}
	return nil
}
