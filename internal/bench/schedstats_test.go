package bench

import (
	"testing"

	"scc/internal/core"
	"scc/internal/fabric"
	"scc/internal/fault"
	"scc/internal/rcce"
	"scc/internal/scc"
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
// of these events (e.g. RCKMPI 173,826 switches + 21,474 inline). When
// the continuations ran only flushes and flag waits they carried 25–55 %
// (RCKMPI 88,406 switches + 106,894, blocking 64,722 + 68,976, iRCCE
// 76,903 + 62,455, lightweight 79,682 + 73,925 and balanced 81,867 +
// 63,987). Since a transfer's transitions run as steps too, a blocking
// message resumes its process once and a posted transition once, and
// the split was re-pinned with every sum unchanged (iRCCE then 53,631 +
// 85,727, lightweight 54,321 + 99,286, balanced 55,556 + 90,298). Since
// WaitAll's rounds run as steps as well, a posted wait resumes its
// process once, and the split was re-pinned again, every sum unchanged.
func TestFastPathCarriesRealCollectives(t *testing.T) {
	want := map[string][3]uint64{ // stack -> {events, handoffs, fastpath}
		"RCKMPI":                             {195300, 701, 194599},
		"blocking":                           {133698, 18372, 115326},
		"iRCCE":                              {139358, 27398, 111960},
		"lightweight non-blocking":           {153607, 27440, 126167},
		"lightweight non-blocking, balanced": {145854, 27395, 118459},
		"MPB-based Allreduce":                {94000, 70791, 23209},
	}
	// Four Allgather cells: RCKMPI's ring streams every message through
	// 64-B windows (the cell the Fig. 9 panel spends most host time on),
	// and blocking RCCE's ring is its chunked counterpart. Recorded
	// while each window or chunk still resumed its process four times
	// per side: 2,369,308 + 2,297,652 and 26,868 + 46,040. The iRCCE and
	// lightweight rings were added while WaitAll's rounds still ran as
	// process code: 26,354 + 49,914 and 25,650 + 53,503.
	allgather := map[string][3]uint64{
		"RCKMPI":                   {4666960, 9348, 4657612},
		"blocking":                 {72908, 9354, 63554},
		"iRCCE":                    {76268, 13802, 62466},
		"lightweight non-blocking": {79153, 13716, 65437},
	}
	for _, op := range []Op{OpAllreduce, OpAllgather} {
		for _, st := range StacksFor(op) {
			w := want[st.Name]
			if op == OpAllgather {
				var ok bool
				if w, ok = allgather[st.Name]; !ok {
					continue
				}
			}
			h, f := measureSchedStats(t, op, st, 552)
			if h+f != w[0] {
				t.Errorf("%s/%s n=552: %d events (handoffs %d + fastpath %d), want %d",
					op, st.Name, h+f, h, f, w[0])
			}
			if h != w[1] || f != w[2] {
				t.Errorf("%s/%s n=552: handoffs=%d fastpath=%d, want %d and %d",
					op, st.Name, h, f, w[1], w[2])
			}
		}
	}
}

// measureHardenedSchedStats runs one full-chip Allreduce of n doubles
// under cfg and plan (nil = fault-free), as the robustness figures do,
// and returns the scheduler's counters and how many faults fired.
func measureHardenedSchedStats(t *testing.T, cfg core.Config, plan *fault.Plan, n int) (handoffs, fastpath uint64, fired int) {
	t.Helper()
	model := timing.Default()
	sys := fabric.New(model, 1)
	defer sys.Release()
	if plan != nil {
		fault.Install(sys.Chips[0], plan)
	}
	sys.Launch(func(_ int, c *scc.Core) {
		x := core.NewCtx(sys.Comms[0].UE(c.ID), cfg)
		src, dst := stageInput(c, n, n, float64(c.ID+1), 0.5)
		if err := x.Allreduce(src, dst, n, core.Sum); err != nil {
			panic(err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		fired = len(plan.Events())
	}
	handoffs, fastpath = sys.Engine.SchedStats()
	return handoffs, fastpath, fired
}

// TestFastPathCarriesHardenedCollectives extends the conservation law to
// the bounded waits: the hardened transport, the self-healing runtime's
// votes and a recovery from one lost flag write. The event counts were
// recorded while bounded waits still resumed their core after every
// probe to test a Go predicate and parked with WaitOnTimeout from its
// stack (then 68,484, 68,755 and 68,317 switches). Since the engine
// matches their accepted bytes and parks them with the deadline itself,
// about 10,000 fewer events per run need a switch; the count is the same.
// Since a hardened transition runs as the request's steps (it resumes
// the process once, not after every access), the split moved again,
// from 58,222 + 28,646, 58,391 + 28,807 and 57,802 + 29,474 switches +
// inline events, with every sum unchanged. Since WaitAll's rounds and
// a hardened op's start run as steps too (a hardened op resumes its
// process once), it moved once more, from 31,420 + 55,448, 31,588 +
// 55,610 and 31,296 + 55,980.
func TestFastPathCarriesHardenedCollectives(t *testing.T) {
	pol := rcce.DefaultPolicy()
	heal := core.DefaultHealPolicy()
	hardened := core.Config{Transport: core.TransportLightweight, Balanced: true, Recovery: &pol}
	healing := core.Config{Transport: core.TransportLightweight, Balanced: true, SelfHeal: &heal}
	for _, row := range []struct {
		name  string
		cfg   core.Config
		plan  *fault.Plan
		fired int
		want  [3]uint64 // events, handoffs, fastpath
	}{
		{"hardened", hardened, nil, 0, [3]uint64{86868, 4560, 82308}},
		{"self-heal", healing, nil, 0, [3]uint64{87198, 4722, 82476}},
		{"hardened, one flag drop", hardened,
			fault.NewPlan().Add(fault.Fault{Kind: fault.FlagDrop, Core: 5, Off: -1}), 1, [3]uint64{87276, 4560, 82716}},
	} {
		h, f, fired := measureHardenedSchedStats(t, row.cfg, row.plan, 552)
		if fired != row.fired {
			t.Errorf("%s: %d faults fired, want %d", row.name, fired, row.fired)
		}
		if h+f != row.want[0] {
			t.Errorf("allreduce/%s n=552: %d events (handoffs %d + fastpath %d), want %d",
				row.name, h+f, h, f, row.want[0])
		}
		if h != row.want[1] || f != row.want[2] {
			t.Errorf("allreduce/%s n=552: handoffs=%d fastpath=%d, want %d and %d",
				row.name, h, f, row.want[1], row.want[2])
		}
	}
}
