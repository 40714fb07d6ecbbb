package bench

import (
	"reflect"
	"strings"
	"testing"

	"scc/internal/core"
	"scc/internal/rcce"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// TestParallelPanelMatchesSerial is the determinism contract of the
// parallel runner: for every one of the six collectives, the pooled
// sweep must reproduce the serial Panel bit for bit. Virtual-time
// results may never depend on host scheduling. It also crosses
// goroutines with the process pool: the serial sweep runs its engines on
// the test goroutine and leaves one chip's worth of coroutines parked,
// which the four runner goroutines must then adopt and resume.
func TestParallelPanelMatchesSerial(t *testing.T) {
	m := timing.Default()
	sizes := []int{24, 52}
	simtime.DrainWorkerPool()
	for _, op := range AllOps() {
		serial := Panel(m, op, sizes, 1)
		before := simtime.WorkerPoolStats()
		parallel := NewRunner(4).Panel(m, op, sizes, 1)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s: parallel panel differs from serial:\nserial:   %+v\nparallel: %+v", op, serial, parallel)
		}
		after := simtime.WorkerPoolStats()
		if got := after.Adopted - before.Adopted; got < uint64(before.Idle) {
			t.Fatalf("%s: runner goroutines adopted %d pooled coroutines, want at least the %d the serial sweep parked",
				op, got, before.Idle)
		}
		if after.Workers != after.Idle {
			t.Fatalf("%s: %d of %d pool workers not parked after the sweep", op, after.Workers-after.Idle, after.Workers)
		}
	}
}

// TestParallelPanelAnyWorkerCount re-checks one panel across several
// pool sizes, including more workers than cells and the degenerate
// serial pool.
func TestParallelPanelAnyWorkerCount(t *testing.T) {
	m := timing.Default()
	sizes := []int{24, 52}
	serial := Panel(m, OpAllreduce, sizes, 1)
	for _, w := range []int{1, 2, 7, 64} {
		got := NewRunner(w).Panel(m, OpAllreduce, sizes, 1)
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d: panel differs from serial", w)
		}
	}
}

// TestRunnerPanelsMatchesPerOpPanels checks the pooled multi-panel path
// (-op all) against per-op serial panels.
func TestRunnerPanelsMatchesPerOpPanels(t *testing.T) {
	m := timing.Default()
	sizes := []int{40}
	ops := []Op{OpBroadcast, OpReduce}
	got := NewRunner(3).Panels(m, ops, sizes, 1)
	for i, op := range ops {
		want := Panel(m, op, sizes, 1)
		if !reflect.DeepEqual(want, got[i]) {
			t.Fatalf("%s: pooled Panels result differs from serial Panel", op)
		}
	}
}

// TestParallelFaultSweepMatchesSerial pins the parallelized Fig. R1
// sweep (including the injected-fault cells, whose plans derive from the
// fault-free baseline) to the serial implementation.
func TestParallelFaultSweepMatchesSerial(t *testing.T) {
	m := timing.Default()
	pol := rcce.Policy{Timeout: simtime.Microseconds(300), Backoff: 2, MaxRetries: 8}
	counts := []int{0, 3}
	serial := FaultSweep(m, core.TransportLightweight, pol, 1, 64, counts)
	parallel := NewRunner(4).FaultSweep(m, core.TransportLightweight, pol, 1, 64, counts)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel fault sweep differs from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestRunnerSummaryMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("summary sweeps all six panels")
	}
	m := timing.Default()
	sizes := []int{32}
	serial, err := Summary(m, sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(4).Summary(m, sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel summary differs from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestSummarizePanelsMissingBaseline: a panel without the blocking
// series must be a loud error, not a table of speedup-0 rows.
func TestSummarizePanelsMissingBaseline(t *testing.T) {
	panels := [][]Series{{
		{Stack: Stack{Name: "iRCCE", Cfg: core.ConfigIRCCE}, Points: []Point{{N: 8, Latency: 100}}},
	}}
	if _, err := SummarizePanels([]Op{OpAllreduce}, panels); err == nil {
		t.Fatal("missing blocking baseline not reported")
	} else if !strings.Contains(err.Error(), "blocking baseline") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// Mismatched ops/panels lengths are an error too.
	if _, err := SummarizePanels([]Op{OpAllreduce, OpReduce}, panels); err == nil {
		t.Fatal("ops/panels length mismatch not reported")
	}
	// An empty baseline series is as useless as a missing one.
	panels = [][]Series{{
		{Stack: Stack{Name: "blocking", Cfg: core.ConfigBlocking}},
		{Stack: Stack{Name: "iRCCE", Cfg: core.ConfigIRCCE}, Points: []Point{{N: 8, Latency: 100}}},
	}}
	if _, err := SummarizePanels([]Op{OpAllreduce}, panels); err == nil {
		t.Fatal("empty blocking baseline not reported")
	}
}

// TestRaggedPanelIsAnError: WriteCSV and WriteTable must reject series
// of unequal lengths instead of panicking on the short one.
func TestRaggedPanelIsAnError(t *testing.T) {
	ragged := []Series{
		{Stack: Stack{Name: "a"}, Points: []Point{{N: 10, Latency: 1}, {N: 20, Latency: 2}}},
		{Stack: Stack{Name: "b"}, Points: []Point{{N: 10, Latency: 3}}},
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, ragged); err == nil {
		t.Fatal("WriteCSV accepted a ragged panel")
	} else if !strings.Contains(err.Error(), "ragged") {
		t.Fatalf("unhelpful WriteCSV error: %v", err)
	}
	if err := WriteTable(&sb, "t", ragged); err == nil {
		t.Fatal("WriteTable accepted a ragged panel")
	}
	// Empty input stays fine for both.
	if err := WriteTable(&sb, "t", nil); err != nil {
		t.Fatalf("WriteTable(nil) = %v", err)
	}
}
