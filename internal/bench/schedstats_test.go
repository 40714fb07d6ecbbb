package bench

import (
	"testing"

	"scc/internal/fabric"
	"scc/internal/timing"
)

// measureSchedStats runs one collective program on a fresh chip and
// returns the scheduler's handoff and fast-path counters.
func measureSchedStats(t *testing.T, op Op, st Stack, n int) (handoffs, fastpath uint64) {
	t.Helper()
	model := timing.Default()
	sys := fabric.New(model, 1)
	if _, err := stackProgram(model, op, st, n, 1).runOn(sys); err != nil {
		t.Fatalf("%s/%s n=%d: %v", op, st.Name, n, err)
	}
	return sys.Engine.SchedStats()
}

// TestFastPathCarriesRealCollectives pins the scheduler's event counts
// on actual protocol workloads, not just the microbenchmark. With 48
// cores live the event queue is rarely empty, so most events still pay a
// switch — hit rates run 1.4–11% across the stacks — but the same-proc
// fast path must keep firing where it applies. The counts are exact. They
// were recorded under the channel-handoff scheduler, before process
// switching moved to coroutines, and re-recorded once, when the program
// stopped staging n·p doubles for every op: a 552-double src then fit
// L1, so the warm-up's cache misses and with them its event interleaving
// changed (the timed repetition's ticks did not). How control changes
// hands must never change which events run or which of them are
// absorbed inline (the benchmark's simtime.events and
// simtime.fastpath_ratio counters are sums of these).
func TestFastPathCarriesRealCollectives(t *testing.T) {
	want := map[string][2]uint64{ // stack -> {handoffs, fastpath}
		"RCKMPI":                             {173826, 21474},
		"blocking":                           {121350, 12348},
		"iRCCE":                              {131412, 7946},
		"lightweight non-blocking":           {148151, 5456},
		"lightweight non-blocking, balanced": {141839, 4015},
		"MPB-based Allreduce":                {92697, 1303},
	}
	for _, st := range StacksFor(OpAllreduce) {
		h, f := measureSchedStats(t, OpAllreduce, st, 552)
		if w := want[st.Name]; h != w[0] || f != w[1] {
			t.Errorf("allreduce/%s n=552: handoffs=%d fastpath=%d, want %d and %d",
				st.Name, h, f, w[0], w[1])
		}
	}
}
