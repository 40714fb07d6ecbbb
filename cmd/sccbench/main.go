// Command sccbench regenerates the paper's Fig. 9: the latency of each
// collective operation against the vector size, for every measured
// communication stack.
//
// Examples:
//
//	sccbench -op allreduce                      # one panel, quick sampling
//	sccbench -op all -lo 500 -hi 700 -step 1    # the paper's full x-axis
//	sccbench -op allreduce -csv fig9f.csv       # machine-readable output
//	sccbench -summary                           # Sec. V-A speedup table
//	sccbench -op allreduce -bugfixed            # hardware-bug ablation
//	sccbench -parallel 1                        # force the serial sweep path
//	sccbench -list-algos                        # registered collective algorithms
//	sccbench -op allreduce -algo recdouble      # pin one registry algorithm
//	sccbench -tune                              # tuner sweep -> decision table JSON
//	sccbench -synth                             # schedule synthesis sweep -> schedule table JSON
//	sccbench -synth -mesh 16x16x2               # synthesize for a 512-core mesh
//	sccbench -mesh 100x100 -scale               # 10,000-core smoke: footprint + wall time
//	sccbench -op all -cpuprofile cpu.pprof      # profile the simulator itself
//	sccbench -op allreduce -metrics             # instrumented run -> counter table
//	sccbench -op allreduce -metrics -metricsout m.json -tracejson t.json
//	                                            # JSON snapshot + Perfetto timeline
//	sccbench -op allreduce -mesh 8x8x2          # the same panel on a 128-core mesh
//	sccbench -op allreduce -chips 4             # hierarchical sweep over 4 fabric-joined chips
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"scc/internal/bench"
	"scc/internal/core"
	"scc/internal/synth"
	"scc/internal/trace"
)

func main() {
	op := flag.String("op", "allreduce", "collective to sweep: allgather, alltoall, reducescatter, broadcast, reduce, allreduce, or all")
	lo := flag.Int("lo", 500, "smallest vector size (doubles)")
	hi := flag.Int("hi", 700, "largest vector size (doubles)")
	step := flag.Int("step", 4, "vector size step (1 reproduces the paper's spikes at full resolution)")
	reps := flag.Int("reps", 1, "timed repetitions per point (first run is always a discarded warm-up)")
	csv := flag.String("csv", "", "write the panel as CSV to this file instead of a table")
	plot := flag.Bool("plot", false, "render the panel as an ASCII chart instead of a table")
	summary := flag.Bool("summary", false, "print the Sec. V-A per-collective speedup summary and exit")
	algo := flag.String("algo", "", "pin every non-RCKMPI stack to this registry algorithm (allreduce/broadcast/reduce panels only)")
	listAlgos := flag.Bool("list-algos", false, "list the registered collective algorithms and exit")
	tune := flag.Bool("tune", false, "run the tuner sweep and write the winning decision table as JSON")
	tuneout := flag.String("tuneout", "tuned_default.json", "decision-table output path (with -tune)")
	synthRun := flag.Bool("synth", false, "run the schedule-synthesis sweep and write the winning schedules as JSON")
	synthout := flag.String("synthout", "synth_default.json", "schedule-table output path (with -synth)")
	bugfixed := flag.Bool("bugfixed", false, "simulate the chip with the local-MPB erratum fixed (Sec. IV-D ablation)")
	parallel := flag.Int("parallel", 0, "sweep worker-pool size; 0 = GOMAXPROCS, 1 = serial (output is identical at any value)")
	scale := flag.Bool("scale", false, "run one Barrier+Broadcast on every core of the -mesh chip and report host wall time and memory footprint")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	metricsOn := flag.Bool("metrics", false, "run one instrumented measurement (op at -lo doubles) and report its metrics")
	metricsout := flag.String("metricsout", "", "metrics snapshot path; .json or .csv by extension, default: text table on stdout (implies -metrics)")
	tracejson := flag.String("tracejson", "", "write the instrumented run's timeline as Chrome Trace Event JSON, loadable in Perfetto (implies -metrics)")
	stack := flag.String("stack", "balanced", "stack for the instrumented run: rckmpi, blocking, ircce, lwnb, balanced, or mpb")
	meshSpec := flag.String("mesh", "", "mesh geometry as ROWSxCOLSxCORES_PER_TILE, e.g. 8x8x2 (default: the paper's 4x6x2 chip)")
	chipsSpec := flag.String("chips", "1", "chips joined by the inter-chip fabric; >1 sweeps the hierarchical collectives (allreduce and broadcast panels only)")
	flag.Parse()

	// The committed synthesized schedules join the registry for every
	// sccbench mode (-list-algos, -algo synth:..., panels, the tuner).
	// Registration is explicit here, not at package init: library tests
	// pin registry digests to the hand-written set.
	synth.RegisterDefaults()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sccbench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if *lo < 0 {
		fail("-lo must be non-negative, got %d", *lo)
	}
	if *hi < *lo {
		fail("-hi (%d) must be at least -lo (%d)", *hi, *lo)
	}
	if *step < 1 {
		fail("-step must be at least 1, got %d", *step)
	}
	if *reps < 1 {
		fail("-reps must be at least 1, got %d", *reps)
	}
	if *parallel < 0 {
		fail("-parallel must be non-negative, got %d", *parallel)
	}
	model, err := bench.ParseMeshSpec(*meshSpec)
	if err != nil {
		fail("%v", err)
	}
	model.HardwareBugFixed = *bugfixed
	nChips, err := bench.ParseChips(*chipsSpec)
	if err != nil {
		fail("%v", err)
	}
	if nChips > 1 && (*summary || *tune || *synthRun ||
		*metricsOn || *metricsout != "" || *tracejson != "") {
		fail("-chips > 1 applies to the hierarchical panel sweep only (not -summary/-tune/-synth/-metrics)")
	}

	if *listAlgos {
		for _, k := range core.OpKinds() {
			fmt.Printf("%s:\n", k)
			for _, a := range core.AlgorithmsFor(k) {
				fmt.Printf("  %-10s %s\n", a.Name(), a.Describe())
			}
		}
		os.Exit(0)
	}
	if *algo != "" {
		k, err := core.ParseOpKind(*op)
		if err != nil {
			var kinds []string
			for _, kk := range core.OpKinds() {
				kinds = append(kinds, kk.String())
			}
			fail("-algo applies to the registry-dispatched collectives (%s), not -op %q",
				strings.Join(kinds, ", "), *op)
		}
		if core.LookupAlgorithm(k, *algo) == nil {
			fail("unknown %s algorithm %q (available: %s)",
				*op, *algo, strings.Join(core.AlgorithmNames(k), ", "))
		}
	}

	stopProfiles, err := bench.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sccbench:", err)
		os.Exit(1)
	}
	exit := func(code int) {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "sccbench:", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	runner := bench.NewRunner(*parallel)

	if *scale {
		fp := bench.MeasureFootprint(model)
		fmt.Printf("scale run: %d cores (%s)\n", fp.Cores, bench.MeshLabel(model, 1))
		fmt.Printf("  barrier    %12d ticks virtual\n", fp.BarrierTicks)
		fmt.Printf("  broadcast  %12d ticks virtual\n", fp.BroadcastTicks)
		fmt.Printf("  wall       %12.0f ms\n", fp.WallMs)
		fmt.Printf("  footprint  %12.0f bytes/core live (%.1f MB peak heap)\n",
			fp.BytesPerCore, fp.PeakHeapMB)
		exit(0)
	}

	if *metricsOn || *metricsout != "" || *tracejson != "" {
		o := bench.Op(*op)
		if !validOp(o) {
			fail("-metrics needs a single concrete -op, got %q", *op)
		}
		st, ok := stackByName(*stack)
		if !ok {
			fail("unknown -stack %q (rckmpi, blocking, ircce, lwnb, balanced, mpb)", *stack)
		}
		if *algo != "" && !st.RCKMPI {
			st.Algo = *algo
		}
		run := bench.MeasureInstrumented(model, o, st, *lo, *reps)
		fmt.Printf("instrumented run: op=%s stack=%q n=%d reps=%d  avg latency %.1fus\n",
			o, st.Label(), *lo, *reps, run.Latency.Micros())
		if err := writeMetricsSnapshot(run, *metricsout); err != nil {
			fmt.Fprintln(os.Stderr, "sccbench:", err)
			exit(1)
		}
		if *tracejson != "" {
			if err := writeTraceJSON(run, o, st, *lo, *tracejson); err != nil {
				fmt.Fprintln(os.Stderr, "sccbench:", err)
				exit(1)
			}
			fmt.Printf("wrote %s (open in https://ui.perfetto.dev or chrome://tracing)\n", *tracejson)
		}
		exit(0)
	}

	if *tune {
		table, cells, err := bench.Tune(runner, model, bench.TuneSpecFor(model.NumCores()))
		if err != nil {
			fmt.Fprintln(os.Stderr, "sccbench:", err)
			exit(1)
		}
		fmt.Println("Tuner crossover table (winner per op / np / size bucket; latencies summed over bucket edges):")
		for _, c := range cells {
			bucket := "unbounded"
			if c.MaxN != 0 {
				bucket = fmt.Sprintf("n<=%d", c.MaxN)
			}
			fmt.Printf("  %-9s np=%-2d %-9s -> %-9s", c.Op, c.NP, bucket, c.Winner)
			for _, name := range core.AlgorithmNames(c.Op) {
				if lat, ok := c.Latency[name]; ok {
					fmt.Printf("  %s=%.1fus", name, lat.Micros())
				}
			}
			fmt.Println()
		}
		data, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "sccbench:", err)
			exit(1)
		}
		if err := os.WriteFile(*tuneout, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sccbench:", err)
			exit(1)
		}
		fmt.Printf("wrote %s\n", *tuneout)
		exit(0)
	}

	if *synthRun {
		table, cells, err := bench.Synthesize(runner, model, bench.SynthSpecFor(model.NumCores()))
		if err != nil {
			fmt.Fprintln(os.Stderr, "sccbench:", err)
			exit(1)
		}
		fmt.Println("Schedule synthesis (best candidate per op / np / size bucket vs hand-written algorithms):")
		for _, c := range cells {
			bucket := "unbounded"
			if c.MaxN != 0 {
				bucket = fmt.Sprintf("n<=%d", c.MaxN)
			}
			verdict := " "
			if c.BeatsAll {
				verdict = "*" // beats every hand-written algorithm
			}
			fmt.Printf("%s %-9s np=%-3d %-9s\n", verdict, c.Op, c.NP, bucket)
			for _, cand := range c.Cands {
				fmt.Printf("    synth %-8s steps=%-2d moves=%-5d %10.1fus\n",
					cand.Gen, cand.Steps, cand.Moves, cand.Latency.Micros())
			}
			for _, name := range core.AlgorithmNames(c.Op) {
				if lat, ok := c.Hand[name]; ok {
					fmt.Printf("    hand  %-8s %29.1fus\n", name, lat.Micros())
				}
			}
		}
		data, err := table.Marshal()
		if err != nil {
			fmt.Fprintln(os.Stderr, "sccbench:", err)
			exit(1)
		}
		if err := os.WriteFile(*synthout, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sccbench:", err)
			exit(1)
		}
		fmt.Printf("wrote %s (%d schedules; * = beats all hand-written algorithms on its cell)\n",
			*synthout, len(table.Entries))
		exit(0)
	}

	if *summary {
		sizes := bench.Sizes(*lo, *hi, max(*step, 25))
		rows, err := runner.Summary(model, sizes, *reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sccbench:", err)
			exit(1)
		}
		fmt.Printf("Per-collective average speedup over blocking RCCE/RCCE_comm (sizes %d..%d):\n", *lo, *hi)
		fmt.Println("(paper, Sec. V-A: between ~1.6x for Alltoall and ~2.8x for Allgather)")
		for _, row := range rows {
			fmt.Printf("  %-14s %5.2fx   (best: %s)\n", row.Op, row.Speedup, row.BestName)
		}
		exit(0)
	}

	ops := []bench.Op{bench.Op(*op)}
	if *op == "all" {
		ops = bench.AllOps()
	} else if !validOp(bench.Op(*op)) {
		fail("unknown op %q", *op)
	}

	sizes := bench.Sizes(*lo, *hi, *step)
	var panels [][]bench.Series
	if nChips > 1 {
		// Multi-chip: only the hierarchically-composed collectives sweep.
		for _, o := range ops {
			if o != bench.OpAllreduce && o != bench.OpBroadcast {
				fail("-chips > 1 supports the hierarchical collectives (allreduce, broadcast), not -op %q", o)
			}
		}
		for _, o := range ops {
			panels = append(panels, []bench.Series{bench.HierSweep(model, nChips, *algo, o, sizes, *reps)})
		}
	} else {
		panels = runner.PanelsAlgo(model, ops, *algo, sizes, *reps)
	}
	for i, o := range ops {
		panel := panels[i]
		title := fmt.Sprintf("Fig. 9 (%s): latency [us] vs vector size [doubles], %s (%d cores)",
			o, bench.MeshLabel(model, nChips), nChips*model.NumCores())
		if *bugfixed {
			title += " [hardware bug fixed]"
		}
		if *algo != "" {
			title += fmt.Sprintf(" [algo=%s]", *algo)
		}
		if *csv != "" && len(ops) == 1 {
			f, err := os.Create(*csv)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
			if err := bench.WriteTopologyCSV(f, model, nChips, panel); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
			f.Close()
			fmt.Printf("wrote %s\n", *csv)
			continue
		}
		if *plot {
			if err := bench.RenderChart(os.Stdout, title, panel, 100, 22); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
		} else if err := bench.WriteTable(os.Stdout, title, panel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Println()
	}
	exit(0)
}

// stackByName maps the -stack flag's short names to bench stacks.
func stackByName(name string) (bench.Stack, bool) {
	switch name {
	case "rckmpi":
		return bench.Stack{Name: "RCKMPI", RCKMPI: true}, true
	case "blocking":
		return bench.Stack{Name: "blocking", Cfg: core.ConfigBlocking}, true
	case "ircce":
		return bench.Stack{Name: "iRCCE", Cfg: core.ConfigIRCCE}, true
	case "lwnb":
		return bench.Stack{Name: "lightweight non-blocking", Cfg: core.ConfigLightweight}, true
	case "balanced":
		return bench.Stack{Name: "lightweight non-blocking, balanced", Cfg: core.ConfigBalanced}, true
	case "mpb":
		return bench.Stack{Name: "MPB-based Allreduce", Cfg: core.ConfigMPB}, true
	default:
		return bench.Stack{}, false
	}
}

// writeMetricsSnapshot renders the snapshot as a table on stdout, or as
// JSON/CSV when a -metricsout path is given (format by extension).
func writeMetricsSnapshot(run bench.InstrumentedRun, path string) error {
	if path == "" {
		return run.Metrics.WriteTable(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".csv"):
		err = run.Metrics.WriteCSV(f)
	case strings.HasSuffix(path, ".json"):
		err = run.Metrics.WriteJSON(f)
	default:
		err = run.Metrics.WriteTable(f)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeTraceJSON emits the instrumented run's spans as a Chrome trace;
// the metrics snapshot rides along under otherData so one file carries
// both the timeline and the counters.
func writeTraceJSON(run bench.InstrumentedRun, op bench.Op, st bench.Stack, n int, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteChromeTrace(f, run.Spans, map[string]any{
		"op":      string(op),
		"stack":   st.Label(),
		"n":       n,
		"metrics": run.Metrics,
	})
}

func validOp(op bench.Op) bool {
	for _, o := range bench.AllOps() {
		if o == op {
			return true
		}
	}
	return false
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
