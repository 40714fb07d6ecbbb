package bench

import (
	"testing"

	"scc/internal/timing"
)

// TestProbeCountersDeterministic audits the wait-path probe accounting:
// flag-probes must be an exact function of the simulated program — one
// count per probe, per flag, per round — and in particular must not
// depend on how (or whether) blocked-wait diagnostics are rendered. Two identical instrumented runs across every transport
// family must agree per core, exactly.
func TestProbeCountersDeterministic(t *testing.T) {
	model := timing.Default()
	for _, cell := range instrumentCells() {
		a := MeasureInstrumented(model, cell.op, cell.st, 96, 2)
		b := MeasureInstrumented(model, cell.op, cell.st, 96, 2)
		for _, ctr := range []string{"flag-probes", "blocked-waits", "flag-sets"} {
			for id := range a.Metrics.Cores {
				va := a.Metrics.Cores[id].Counters[ctr]
				vb := b.Metrics.Cores[id].Counters[ctr]
				if va != vb {
					t.Errorf("%s/%s: core %d %s differs between identical runs: %d vs %d",
						cell.op, cell.st.Label(), id, ctr, va, vb)
				}
			}
		}
		// A run that never probes a flag would make the audit vacuous.
		var total int64
		for id := range a.Metrics.Cores {
			total += a.Metrics.Cores[id].Counters["flag-probes"]
		}
		if total == 0 {
			t.Errorf("%s/%s: no flag probes recorded", cell.op, cell.st.Label())
		}
	}
}
