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
// on actual protocol workloads, not just the microbenchmark. The first
// column is the conservation law: handoffs + fastpath is the number of
// events the program runs, and how control changes hands must never
// change it (the benchmark's simtime.events counter is this sum). It was
// recorded under the channel-handoff scheduler, before process switching
// moved to coroutines, and re-recorded once, when the program stopped
// staging n·p doubles for every op: a 552-double src then fit L1, so the
// warm-up's cache misses and with them its event interleaving changed
// (the timed repetition's ticks did not).
//
// The split is the second pin. "Fastpath" counts the events delivered
// without a switch: the same-proc fast path, and, since the engine runs
// a core's flushes and flag-wait probes as continuations, every wake-up
// whose continuation leaves its process waiting. With 48 cores live the
// queue is rarely empty, so the fast path alone carried only 1.4–11 %
// of these events (e.g. RCKMPI 173,826 switches + 21,474 inline); the
// continuations carry 25–55 % (simtime.fastpath_ratio).
func TestFastPathCarriesRealCollectives(t *testing.T) {
	want := map[string][3]uint64{ // stack -> {events, handoffs, fastpath}
		"RCKMPI":                             {195300, 88406, 106894},
		"blocking":                           {133698, 64722, 68976},
		"iRCCE":                              {139358, 76903, 62455},
		"lightweight non-blocking":           {153607, 79682, 73925},
		"lightweight non-blocking, balanced": {145854, 81867, 63987},
		"MPB-based Allreduce":                {94000, 70791, 23209},
	}
	for _, st := range StacksFor(OpAllreduce) {
		h, f := measureSchedStats(t, OpAllreduce, st, 552)
		w := want[st.Name]
		if h+f != w[0] {
			t.Errorf("allreduce/%s n=552: %d events (handoffs %d + fastpath %d), want %d",
				st.Name, h+f, h, f, w[0])
		}
		if h != w[1] || f != w[2] {
			t.Errorf("allreduce/%s n=552: handoffs=%d fastpath=%d, want %d and %d",
				st.Name, h, f, w[1], w[2])
		}
	}
}
