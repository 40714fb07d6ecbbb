// Command benchmarks is the repository's end-to-end benchmark: it runs
// one workload in one process on two clocks. Virtual time is the paper's
// result and is exact; host time is what a user of the simulator waits
// for and is reported relative to a frozen reference kernel that runs
// between the measured units, which cancels the drift of a shared host.
// See README.md in this directory for the glossary of workloads and
// metrics, and BENCHMARK.json at the root for the contract.
//
//	go run ./benchmarks -workload fig9_48 -seed 1             # end-to-end metrics
//	go run ./benchmarks -workload fig9_48 -seed 1 -trace 1    # per-layer metrics
//	go run ./benchmarks -probes                               # layer probes only
//	go run ./benchmarks -workload gcmc_48 -aa 10              # run-to-run self-check
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"scc/internal/bench"
)

// outDir is where the traced run leaves its spans and profiles, inside
// the checkout the benchmark runs from.
const outDir = ".bench_build/benchmarks"

// setupSamples is how many fresh processes set-up is timed in; the
// median is reported.
const setupSamples = 3

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	// Two processors whatever the host offers: one runs the simulation,
	// the other shows work moved off it (GC today, parallel simulation
	// later) in cpu_ref_s.
	runtime.GOMAXPROCS(2)

	name := flag.String("workload", "", "workload to run: fig9_48, gcmc_48, faults_48 or mesh10k_sync")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", runSeconds, "length of the measured phase on the host the workloads were sized on")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: a traced run that reports the per-layer metrics")
	probes := flag.Bool("probes", false, "run the layer probes alone and print them")
	aa := flag.Int("aa", 0, "run the workload this many times back to back, each with the next seed, and print the spread of every end-to-end metric")
	smoke := flag.Bool("smoke", false, "set up every workload and run its harness-built unit once; a quick check that the harness works")
	setupOnly := flag.Bool("setup-only", false, "perform set-up, report its time and exit (used by the benchmark itself)")
	spawnedAt := flag.Int64("spawned-at", 0, "with -setup-only: when the parent started this process, in Unix nanoseconds")
	printContract := flag.Bool("contract", false, "print BENCHMARK.json as the harness's tables define it")
	flag.Parse()

	if *printContract {
		data, err := contractJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}
	if *probes {
		s := &session{}
		m := map[string]float64{}
		s.runProbes(m, false)
		printMetrics(m)
		reportFailures(s)
		os.Exit(min(s.failed, 1))
	}
	if *smoke {
		os.Exit(runSmoke())
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmarks: unknown -workload %q\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *setupOnly:
		os.Exit(runSetupOnly(w, *seed, *spawnedAt))
	case *aa > 0:
		os.Exit(runAA(w, *seed, *seconds, *aa))
	case *trace == 1:
		os.Exit(emit(runTraced(w, *seed)))
	case *trace == 0:
		os.Exit(emit(runEndToEnd(w, *seed, *seconds)))
	default:
		fmt.Fprintf(os.Stderr, "benchmarks: -trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
}

// emit prints the result line and picks the exit code: a run that could
// not be measured exits non-zero without a result; a measured run exits
// zero and says in the line whether its outputs were correct.
func emit(res *result, err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func printMetrics(m map[string]float64) {
	for _, name := range perLayerNames {
		if v, ok := m[name]; ok {
			fmt.Printf("  %-36s %14.4f %s\n", name, v, unitOf(name))
		}
	}
}

func reportFailures(s *session) {
	for _, f := range s.failures {
		fmt.Fprintln(os.Stderr, "benchmarks: FAILED", f)
	}
}

// ---- end-to-end run ----

func runEndToEnd(w workload, seed int64, seconds float64) (*result, error) {
	setup, err := measureSetup(w, seed)
	if err != nil {
		return nil, err
	}

	s, _ := newSession(w, seed, nil)
	defer s.close()
	passes := passesFor(w, seconds)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var ps passStats
	for r := 0; r < passes; r++ {
		s.pass(&ps, true)
	}
	mem := memSince(&before)
	scale := ps.clock.scale()
	n := float64(passes)

	e2e := map[string]float64{
		"setup_s":     setup.refS,
		"host_ref_s":  ps.host.Seconds() * scale / n,
		"cpu_ref_s":   ps.cpu.Seconds() * scale / n,
		"alloc_mb":    mem.allocMB / n,
		"allocs_k":    mem.allocsK / n,
		"peak_rss_mb": peakRSSMB(),
		"virt_us":     ps.virtUS,
	}

	fmt.Printf("workload %s seed %d: %d units x %d measured passes, GOMAXPROCS=%d\n", w.name, seed, len(s.p.units), passes, runtime.GOMAXPROCS(0))
	fmt.Printf("  reference: %d slices, mean %.3f ms (nominal %.1f ms), scale %.4f, %.1f%% of measured time\n",
		ps.clock.slices, ps.clock.total.Seconds()*1e3/float64(ps.clock.slices), REF_NOMINAL_S*1e3, scale, 100*ps.clock.total.Seconds()/ps.host.Seconds())
	for _, d := range endToEnd {
		fmt.Printf("  %-14s %14.4f %-6s", d.name, e2e[d.name], d.unit)
		switch d.name {
		case "setup_s":
			fmt.Printf(" (raw %.4f s; median of %d fresh processes)", setup.rawS, setupSamples)
		case "host_ref_s":
			fmt.Printf(" (raw %.4f s per pass)", ps.host.Seconds()/n)
		case "cpu_ref_s":
			fmt.Printf(" (raw %.4f s per pass)", ps.cpu.Seconds()/n)
		}
		fmt.Println()
	}
	if errPct, ratios := s.p.paper(); ratios > 0 {
		fmt.Printf("  %-14s %14.4f %-6s (mean |measured-paper|/paper over %d ratios)\n", "paper_err_pct", errPct, "%", ratios)
	} else {
		fmt.Printf("  %-14s %14s        (extension: the paper has no reference for this workload)\n", "paper_err_pct", "unvalidated")
	}
	fmt.Printf("  %-14s %14.4f %-6s (%d failed of %d units attempted)\n", "fail_ratio", ratio(float64(s.failed), float64(s.attempted)), "ratio", s.failed, s.attempted)
	reportFailures(s)

	res := &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]value{}}
	for _, d := range endToEnd {
		res.Metrics[d.name] = value{e2e[d.name], d.unit}
	}
	return res, nil
}

// ---- set-up ----

type setupSample struct {
	rawS, refS float64
}

// setupReport is what a -setup-only child prints.
type setupReport struct {
	RawS   float64 `json:"raw_s"`
	Scale  float64 `json:"ref_scale"`
	Failed int     `json:"failed"`
}

// runSetupOnly is the child side of measureSetup: set up, then sample
// the reference so the parent can normalise, report and exit.
func runSetupOnly(w workload, seed, spawnedAt int64) int {
	s, _ := newSession(w, seed, nil)
	defer s.close()
	raw := time.Duration(time.Now().UnixNano() - spawnedAt)
	var clock refClock
	const k = 10
	clock.add(s.ref.slices(k), k)
	reportFailures(s)
	line, err := json.Marshal(setupReport{RawS: raw.Seconds(), Scale: clock.scale(), Failed: s.failed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measureSetup times set-up — process start, registry load, model build,
// input generation, first unit cold — in fresh processes and returns the
// median.
func measureSetup(w workload, seed int64) (setupSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return setupSample{}, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	var raws, refs []float64
	for i := 0; i < setupSamples; i++ {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(exe, "-setup-only", "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-spawned-at", fmt.Sprint(time.Now().UnixNano()))
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return setupSample{}, fmt.Errorf("set-up process: %w: %s", err, strings.TrimSpace(stderr.String()))
		}
		var rep setupReport
		if err := json.Unmarshal(lastLine(stdout.Bytes()), &rep); err != nil {
			return setupSample{}, fmt.Errorf("set-up process printed no report: %w", err)
		}
		if rep.Failed != 0 {
			return setupSample{}, fmt.Errorf("set-up process: first unit failed its check: %s", strings.TrimSpace(stderr.String()))
		}
		raws = append(raws, rep.RawS)
		refs = append(refs, rep.RawS*rep.Scale)
	}
	return setupSample{rawS: median(raws), refS: median(refs)}, nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// ---- traced run ----

// runTraced gives the per-layer numbers: spans around every call into a
// layer, a CPU profile of one pass attributed to layers, the modelled
// chip's counters from one instrumented unit, and the layer probes. An
// untraced pass in the same process is the base of the tracing overhead.
func runTraced(w workload, seed int64) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))

	tr := newTracer()
	s, st := newSession(w, seed, tr)
	defer s.close()

	// Untraced pass: the base for the overhead and the Go runtime counts.
	s.tr = nil
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var plain passStats
	s.pass(&plain, true)
	mem := memSince(&before)
	plainRef := plain.host.Seconds() * plain.clock.scale()

	// Traced pass: spans on, CPU profile on, reference slices only
	// around the pass so that they stay out of the profile.
	s.tr = tr
	k := max(5, int(refShare*w.passSeconds/REF_NOMINAL_S)/2)
	var traced passStats
	traced.clock.add(s.ref.slices(k), k)
	stop, err := bench.StartProfiles(stem+".cpu.pprof", "")
	if err != nil {
		return nil, err
	}
	s.pass(&traced, false)
	if err := stop(); err != nil {
		return nil, err
	}
	traced.clock.add(s.ref.slices(k), k)
	tracedRef := traced.host.Seconds() * traced.clock.scale()

	// Instrumented representative unit: spans per layer, exact counters.
	rep := s.runRep()

	m := map[string]float64{}
	for _, name := range perLayerNames {
		m[name] = 0
	}
	m["bench.registry_load_ms"] = st.registry.Seconds() * 1e3
	m["timing.model_build_ms"] = st.model.Seconds() * 1e3
	m["scc.build_ms"] = rep.build.Seconds() * 1e3
	m["simtime.run_ms"] = rep.run.Seconds() * 1e3
	m["bench.check_ms"] = tr.last("bench.check")
	m["bench.trace_overhead_pct"] = 100 * (tracedRef - plainRef) / plainRef
	m["bench.wall_s_raw"] = plain.host.Seconds()
	m["bench.unit_ms_p50"] = median(plain.unitMS)
	m["bench.unit_samples"] = float64(len(plain.unitMS))
	m["bench.ref_share_pct"] = 100 * plain.clock.total.Seconds() / plain.host.Seconds()
	m["go.gc_cycles"] = mem.gcCycles
	m["go.gc_pause_ms"] = mem.gcPauseMS
	m["go.heap_peak_mb"] = mem.heapPeakMB
	errPct, ratios := s.p.paper()
	m["paper.err_pct"], m["paper.ratios_checked"] = errPct, float64(ratios)
	for name, v := range chipMetrics(rep.counts) {
		m[name] = v
	}
	shares, err := hostShares(stem + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	for layer, share := range shares {
		m["hostshare."+layer] = share
	}
	s.runProbes(m, false)
	if err := tr.write(stem + ".spans.json"); err != nil {
		return nil, err
	}

	fmt.Printf("workload %s seed %d: traced run, %d units per pass, %d spans in %s.spans.json\n", w.name, seed, len(s.p.units), len(tr.spans), stem)
	fmt.Printf("  host_ref_s untraced %.4f, traced %.4f\n", plainRef, tracedRef)
	printMetrics(m)
	reportFailures(s)

	res := &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]value{}}
	for _, name := range perLayerNames {
		res.Metrics[name] = value{m[name], unitOf(name)}
	}
	return res, nil
}

// ---- smoke ----

// runSmoke sets every workload up, runs its harness-built unit once
// with spans and counters on, and takes one reference slice: enough to
// notice that the harness or a pinned function has rotted.
func runSmoke() int {
	code := 0
	for _, w := range workloads() {
		t0 := time.Now()
		tr := newTracer()
		s, _ := newSession(w, 1, tr)
		var clock refClock
		clock.add(s.ref.slices(1), 1)
		rep := s.runRep()
		s.close()
		cm := chipMetrics(rep.counts)
		fmt.Printf("smoke %-13s %d/%d units ok, %d spans, %.0f simulated events, ref slice %.2f ms, %.1f s\n",
			w.name, s.attempted-s.failed, s.attempted, len(tr.spans), cm["simtime.events"], clock.total.Seconds()*1e3, time.Since(t0).Seconds())
		reportFailures(s)
		if s.failed != 0 || cm["simtime.events"] == 0 || len(tr.spans) == 0 {
			code = 1
		}
	}
	return code
}
