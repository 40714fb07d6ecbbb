package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestRefKernelAllocatesNothing(t *testing.T) {
	r := newRefKernel()
	defer r.stop()
	if allocs := testing.AllocsPerRun(3, func() { r.slice() }); allocs != 0 {
		t.Fatalf("a reference slice allocates %v objects; it must allocate none", allocs)
	}
}

// The reference kernel must not depend on the code it is the yardstick
// for.
func TestRefKernelImportsNoRepoCode(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "ref.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if path := strings.Trim(imp.Path.Value, `"`); path == "scc" || strings.HasPrefix(path, "scc/") {
			t.Errorf("ref.go imports %s", path)
		}
	}
}

func unitIDs(p *plan) []string {
	var ids []string
	for _, u := range p.units {
		ids = append(ids, u.id)
	}
	return ids
}

func TestSameSeedSameUnits(t *testing.T) {
	for _, w := range workloads() {
		a, b := unitIDs(w.build(7)), unitIDs(w.build(7))
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 built unit lists %v and %v", w.name, a, b)
		}
	}
	// The seed reaches the inputs: a vector size, a broadcast root.
	differs := func(w workload) bool {
		first := unitIDs(w.build(1))
		for seed := int64(2); seed < 12; seed++ {
			if !reflect.DeepEqual(first, unitIDs(w.build(seed))) {
				return true
			}
		}
		return false
	}
	for _, name := range []string{"fig9_48", "mesh10k_sync"} {
		if w, _ := findWorkload(name); !differs(w) {
			t.Errorf("%s: eleven seeds built the same units", name)
		}
	}
}

// Same seed, same simulated time: virtual time is exact, and a unit that
// reports another latency in a later pass fails its check.
func TestSameSeedSameVirtualTime(t *testing.T) {
	for _, name := range []string{"fig9_48", "faults_48"} {
		w, _ := findWorkload(name)
		var virt [2]float64
		for i := range virt {
			out, err := w.build(3).units[0].run(nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			virt[i] = out.virtUS
		}
		if virt[0] != virt[1] || virt[0] <= 0 {
			t.Errorf("%s: first unit took %v then %v simulated us", name, virt[0], virt[1])
		}
	}

	s := &session{firstVirt: make([]float64, 1), seen: make([]bool, 1)}
	s.check(0, "u", 10, nil)
	s.check(0, "u", 10, nil)
	if s.failed != 0 {
		t.Fatalf("identical latencies failed: %v", s.failures)
	}
	s.check(0, "u", 11, nil)
	if s.failed != 1 || s.attempted != 3 {
		t.Fatalf("a latency that changed between passes must fail the unit: failed=%d attempted=%d", s.failed, s.attempted)
	}
}

// BENCHMARK.json repeats the harness's tables for the driver; the two
// must say the same, within the limits the driver sets.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var b contract
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if !reflect.DeepEqual(b.Paths, []string{"benchmarks"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		checkName(w.name)
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		checkName(d.name)
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Bound != d.bound || got.Better != "lower" {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, d)
		}
		if !unit.MatchString(d.unit) || d.bound < 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q bound %v", d.name, d.unit, d.bound)
		}
	}
	if len(b.PerLayer) != len(perLayerNames) || len(perLayerNames) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(b.PerLayer), len(perLayerNames))
	}
	for i, n := range perLayerNames {
		checkName(n)
		got := b.PerLayer[i]
		if got.Name != n || got.Unit != unitOf(n) || got.Better != betterOf(n) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %q in %q", i, got, n, unitOf(n))
		}
		if !unit.MatchString(unitOf(n)) {
			t.Errorf("per-layer metric %s: unit %q", n, unitOf(n))
		}
	}
}

func TestProfileAttribution(t *testing.T) {
	traces := `File: benchmarks
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.futex
             runtime.futexwakeup
             runtime.notewakeup
             runtime.startm
             runtime.wakep
             runtime.ready
             runtime.goready
             runtime.send
             runtime.chansend
             scc/internal/simtime.(*Engine).next
-----------+-------------------------------------------------------
      20ms   runtime.memmove
             scc/internal/scc.(*Core).WriteF64s
             scc/internal/bench.runCollectiveProgram
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrainN
             runtime.gcAssistAlloc
             runtime.mallocgc
             scc/internal/scc.(*mpbArena).page
-----------+-------------------------------------------------------
      10ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
             scc/internal/lwnb.New
-----------+-------------------------------------------------------
      20ms   math.sin
             scc/internal/gcmc.(*Simulation).longEnergy
-----------+-------------------------------------------------------
      10ms   runtime.usleep
             runtime.sysmon
`
	got, err := parseTraces([]byte(traces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"go_switch": 0.03, "scc": 0.02, "go_gc": 0.01, "go_alloc": 0.01, "gcmc": 0.02, "other": 0.01}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("bucket %s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
	if b := bucketOf([]string{"scc/internal/ircce.(*Lib).Wait"}); b != "nb" {
		t.Errorf("ircce charged to %q, want nb", b)
	}
}

// The spread -aa prints must be the one the driver computes with
// Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v .. %v, want 1.5 .. 12", q1, q3)
	}
}

// The harness must not rot: every workload sets up, its harness-built
// unit passes its check with spans and counters on, and every probe but
// the ones needing seconds runs.
func TestSmoke(t *testing.T) {
	if code := runSmoke(); code != 0 {
		t.Fatalf("smoke run exited with %d", code)
	}
	s := &session{}
	m := map[string]float64{}
	s.runProbes(m, true)
	if s.failed != 0 {
		t.Fatalf("probes failed: %v", s.failures)
	}
	for _, name := range []string{"simtime.event_ns", "mesh.transfer_ns", "scc.flag_wait_ns", "rcce.sendrecv_552_ns",
		"core.allreduce552.ring.virt_us", "synth.compile_us", "fault.plan_us", "bench.cells_per_s_serial", "sccsim.run48_host_ms"} {
		if !(m[name] > 0) {
			t.Errorf("probe %s = %v", name, m[name])
		}
	}
	if got := m["core.allreduce552.ring.virt_us"]; math.Abs(got-691.4075) > 1e-9 {
		t.Errorf("balanced ring Allreduce(552) = %v us, EXPERIMENTS.md anchors it at 691.4", got)
	}
}
