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
//
// One invocation runs one mode: the panel sweep (the default), or what
// one of -list-algos, -scale, -metrics (also selected by -metricsout and
// -tracejson), -tune, -synth or -summary names. Selecting two modes, or
// setting a flag the selected mode does not read (-csv with -tune,
// -tuneout without -tune, -stack without -metrics, ...), is a usage
// error: message and usage text on stderr, exit status 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"scc/internal/bench"
	"scc/internal/core"
	"scc/internal/synth"
	"scc/internal/timing"
	"scc/internal/trace"
)

func main() { bench.Exit("sccbench", run(os.Args[1:], os.Stdout)) }

// everyRun lists the flags every simulating mode reads.
const everyRun = " mesh bugfixed cpuprofile memprofile"

// modeReads names, per mode, the flags it reads (its selectors first).
// -hi rides along with -metrics because it is validated against -lo
// (the instrumented run itself measures at -lo).
var modeReads = map[string]string{
	"list-algos": "list-algos",
	"scale":      "scale" + everyRun,
	"metrics":    "metrics metricsout tracejson op lo hi reps stack algo" + everyRun,
	"tune":       "tune tuneout parallel" + everyRun,
	"synth":      "synth synthout parallel" + everyRun,
	"summary":    "summary lo hi step reps parallel" + everyRun,
	"panel":      "op lo hi step reps csv plot algo chips parallel" + everyRun,
}

// modeOf maps a selecting flag to its mode; no selector means "panel".
var modeOf = map[string]string{
	"list-algos": "list-algos", "scale": "scale", "tune": "tune", "synth": "synth", "summary": "summary",
	"metrics": "metrics", "metricsout": "metrics", "tracejson": "metrics",
}

// selectMode returns the one mode the command line selects, or a usage
// error when it selects two or sets a flag that mode never reads.
func selectMode(fs *bench.CLI) (string, error) {
	mode, by, conflict := "panel", "", ""
	var set []string
	fs.Visit(func(f *flag.Flag) {
		set = append(set, f.Name)
		m, selects := modeOf[f.Name]
		if !selects || f.Value.String() == "false" {
			return
		}
		if by != "" && m != mode && conflict == "" {
			conflict = fmt.Sprintf("-%s (%s mode) and -%s (%s mode)", by, mode, f.Name, m)
		}
		mode, by = m, f.Name
	})
	if conflict != "" {
		return "", fs.Fail("%s: one invocation runs one mode", conflict)
	}
	for _, name := range set {
		if !strings.Contains(" "+modeReads[mode]+" ", " "+name+" ") {
			return "", fs.Fail("-%s is not read by the %s mode (it reads: -%s)",
				name, mode, strings.Join(strings.Fields(modeReads[mode]), " -"))
		}
	}
	return mode, nil
}

// run is the whole command: parse, pick the mode, validate, simulate,
// write to stdout. A rejected command line comes back as a
// bench.UsageError, already reported on stderr.
func run(args []string, stdout io.Writer) error {
	fs := bench.NewCLI("sccbench",
		"pin every non-RCKMPI stack to this registry algorithm (allreduce/broadcast/reduce panels only)",
		"chips joined by the inter-chip fabric; >1 sweeps the hierarchical collectives (allreduce and broadcast panels only)")
	fail, algo := fs.Fail, fs.Algo
	op := fs.String("op", "allreduce", "collective to sweep: allgather, alltoall, reducescatter, broadcast, reduce, allreduce, or all")
	lo := fs.Int("lo", 500, "smallest vector size (doubles)")
	hi := fs.Int("hi", 700, "largest vector size (doubles)")
	step := fs.Int("step", 4, "vector size step (1 reproduces the paper's spikes at full resolution)")
	reps := fs.Int("reps", 1, "timed repetitions per point (first run is always a discarded warm-up)")
	csv := fs.String("csv", "", "write the panel as CSV to this file instead of a table (single -op only)")
	plot := fs.Bool("plot", false, "render the panel as an ASCII chart instead of a table")
	fs.Bool("summary", false, "print the Sec. V-A per-collective speedup summary and exit")
	fs.Bool("list-algos", false, "list the registered collective algorithms and exit")
	fs.Bool("tune", false, "run the tuner sweep and write the winning decision table as JSON")
	tuneout := fs.String("tuneout", "tuned_default.json", "decision-table output path (with -tune)")
	fs.Bool("synth", false, "run the schedule-synthesis sweep and write the winning schedules as JSON")
	synthout := fs.String("synthout", "synth_default.json", "schedule-table output path (with -synth)")
	bugfixed := fs.Bool("bugfixed", false, "simulate the chip with the local-MPB erratum fixed (Sec. IV-D ablation)")
	fs.Bool("scale", false, "run one Barrier+Broadcast on every core of the -mesh chip and report host wall time and memory footprint")
	fs.Bool("metrics", false, "run one instrumented measurement (op at -lo doubles) and report its metrics")
	metricsout := fs.String("metricsout", "", "metrics snapshot path; .json or .csv by extension, default: text table on stdout (implies -metrics)")
	tracejson := fs.String("tracejson", "", "write the instrumented run's timeline as Chrome Trace Event JSON, loadable in Perfetto (implies -metrics)")
	stack := fs.String("stack", "balanced", "stack for the instrumented run (with -metrics): rckmpi, blocking, ircce, lwnb, balanced, or mpb")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := selectMode(fs)
	if err != nil {
		return err
	}

	// The committed synthesized schedules join the registry for every
	// sccbench mode (-list-algos, -algo synth:..., panels, the tuner).
	// Registration is explicit here, not at package init: library tests
	// pin registry digests to the hand-written set.
	synth.RegisterDefaults()

	switch {
	case *lo < 0:
		return fail("-lo must be non-negative, got %d", *lo)
	case *hi < *lo:
		return fail("-hi (%d) must be at least -lo (%d)", *hi, *lo)
	case *step < 1:
		return fail("-step must be at least 1, got %d", *step)
	case *reps < 1:
		return fail("-reps must be at least 1, got %d", *reps)
	case *csv != "" && (*op == "all" || *plot):
		return fail("-csv writes one panel as CSV: it needs a single -op and excludes -plot")
	}
	model, nChips, runner, err := fs.Geometry()
	if err != nil {
		return err
	}
	model.HardwareBugFixed = *bugfixed
	if *algo != "" {
		k, err := core.ParseOpKind(*op)
		if err != nil {
			var kinds []string
			for _, kk := range core.OpKinds() {
				kinds = append(kinds, kk.String())
			}
			return fail("-algo applies to the registry-dispatched collectives (%s), not -op %q",
				strings.Join(kinds, ", "), *op)
		}
		if err := fs.CheckAlgo(k); err != nil {
			return err
		}
	}
	ops := []bench.Op{bench.Op(*op)}
	if *op == "all" && mode == "panel" {
		ops = bench.AllOps()
	} else if !slices.Contains(bench.AllOps(), ops[0]) {
		if mode == "metrics" {
			return fail("-metrics needs a single concrete -op, got %q", *op)
		}
		return fail("unknown op %q", *op)
	}
	st, ok := stackByName(*stack)
	if !ok {
		return fail("unknown -stack %q (rckmpi, blocking, ircce, lwnb, balanced, mpb)", *stack)
	}
	if *algo != "" && !st.RCKMPI {
		st.Algo = *algo
	}
	for _, o := range ops {
		if nChips > 1 && o != bench.OpAllreduce && o != bench.OpBroadcast {
			return fail("-chips > 1 supports the hierarchical collectives (allreduce, broadcast), not -op %q", o)
		}
	}

	return fs.Profiled(func() error {
		switch mode {
		case "list-algos":
			listAlgos(stdout)
			return nil
		case "scale":
			fp := bench.MeasureFootprint(model)
			fmt.Fprintf(stdout, "scale run: %d cores (%s)\n", fp.Cores, bench.MeshLabel(model, 1))
			fmt.Fprintf(stdout, "  barrier    %12d ticks virtual\n", fp.BarrierTicks)
			fmt.Fprintf(stdout, "  broadcast  %12d ticks virtual\n", fp.BroadcastTicks)
			fmt.Fprintf(stdout, "  wall       %12.0f ms\n", fp.WallMs)
			fmt.Fprintf(stdout, "  footprint  %12.0f bytes/core live (%.1f MB peak heap, %.1f MB allocated)\n",
				fp.BytesPerCore, fp.PeakHeapMB, float64(fp.AllocBytes)/(1<<20))
			return nil
		case "metrics":
			o := ops[0]
			run := bench.MeasureInstrumented(model, o, st, *lo, *reps)
			fmt.Fprintf(stdout, "instrumented run: op=%s stack=%q n=%d reps=%d  avg latency %.1fus\n",
				o, st.Label(), *lo, *reps, run.Latency.Micros())
			if err := writeMetricsSnapshot(stdout, run, *metricsout); err != nil {
				return err
			}
			if *tracejson == "" {
				return nil
			}
			if err := writeTraceJSON(run, o, st, *lo, *tracejson); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (open in https://ui.perfetto.dev or chrome://tracing)\n", *tracejson)
			return nil
		case "tune":
			return tune(stdout, runner, model, *tuneout)
		case "synth":
			return synthesize(stdout, runner, model, *synthout)
		case "summary":
			rows, err := runner.Summary(model, bench.Sizes(*lo, *hi, max(*step, 25)), *reps)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "Per-collective average speedup over blocking RCCE/RCCE_comm (sizes %d..%d):\n", *lo, *hi)
			fmt.Fprintln(stdout, "(paper, Sec. V-A: between ~1.6x for Alltoall and ~2.8x for Allgather)")
			for _, row := range rows {
				fmt.Fprintf(stdout, "  %-14s %5.2fx   (best: %s)\n", row.Op, row.Speedup, row.BestName)
			}
			return nil
		}

		sizes := bench.Sizes(*lo, *hi, *step)
		var panels [][]bench.Series
		if nChips > 1 {
			// Multi-chip: only the hierarchically-composed collectives sweep.
			for _, o := range ops {
				panels = append(panels, []bench.Series{bench.HierSweep(model, nChips, *algo, o, sizes, *reps)})
			}
		} else {
			panels = runner.PanelsAlgo(model, ops, *algo, sizes, *reps)
		}
		for i, o := range ops {
			title := fmt.Sprintf("Fig. 9 (%s): latency [us] vs vector size [doubles], %s (%d cores)",
				o, bench.MeshLabel(model, nChips), nChips*model.NumCores())
			if *bugfixed {
				title += " [hardware bug fixed]"
			}
			if *algo != "" {
				title += fmt.Sprintf(" [algo=%s]", *algo)
			}
			var err error
			switch {
			case *csv != "":
				err = writeCSV(stdout, *csv, model, nChips, panels[i])
			case *plot:
				err = bench.RenderChart(stdout, title, panels[i], 100, 22)
			default:
				err = bench.WriteTable(stdout, title, panels[i])
			}
			if err != nil {
				return err
			}
			if *csv == "" {
				fmt.Fprintln(stdout)
			}
		}
		return nil
	})
}

// listAlgos prints the registry: every op kind with its algorithms in
// registration order.
func listAlgos(stdout io.Writer) {
	for _, k := range core.OpKinds() {
		fmt.Fprintf(stdout, "%s:\n", k)
		for _, a := range core.AlgorithmsFor(k) {
			fmt.Fprintf(stdout, "  %-10s %s\n", a.Name(), a.Describe())
		}
	}
}

// bucketLabel names a size bucket of the tuner and synthesis tables.
func bucketLabel(maxN int) string {
	if maxN == 0 {
		return "unbounded"
	}
	return fmt.Sprintf("n<=%d", maxN)
}

// tune runs the tuner sweep, prints the crossover table and writes the
// decision table.
func tune(stdout io.Writer, runner *bench.Runner, model *timing.Model, out string) error {
	table, cells, err := bench.Tune(runner, model, bench.TuneSpecFor(model.NumCores()))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "Tuner crossover table (winner per op / np / size bucket; latencies summed over bucket edges):")
	for _, c := range cells {
		fmt.Fprintf(stdout, "  %-9s np=%-2d %-9s -> %-9s", c.Op, c.NP, bucketLabel(c.MaxN), c.Winner)
		for _, name := range core.AlgorithmNames(c.Op) {
			if lat, ok := c.Latency[name]; ok {
				fmt.Fprintf(stdout, "  %s=%.1fus", name, lat.Micros())
			}
		}
		fmt.Fprintln(stdout)
	}
	if err := writeJSON(out, table); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return nil
}

// writeJSON writes v as indented JSON: the committed form of both the
// tuner's and the synthesizer's tables.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// synthesize runs the schedule-synthesis sweep, prints every cell's
// candidates against the hand-written algorithms and writes the table.
func synthesize(stdout io.Writer, runner *bench.Runner, model *timing.Model, out string) error {
	table, cells, err := bench.Synthesize(runner, model, bench.SynthSpecFor(model.NumCores()))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "Schedule synthesis (best candidate per op / np / size bucket vs hand-written algorithms):")
	for _, c := range cells {
		verdict := " "
		if c.BeatsAll {
			verdict = "*" // beats every hand-written algorithm
		}
		fmt.Fprintf(stdout, "%s %-9s np=%-3d %-9s\n", verdict, c.Op, c.NP, bucketLabel(c.MaxN))
		for _, cand := range c.Cands {
			fmt.Fprintf(stdout, "    synth %-8s steps=%-2d moves=%-5d %10.1fus\n",
				cand.Gen, cand.Steps, cand.Moves, cand.Latency.Micros())
		}
		for _, name := range core.AlgorithmNames(c.Op) {
			if lat, ok := c.Latency[name]; ok {
				fmt.Fprintf(stdout, "    hand  %-8s %29.1fus\n", name, lat.Micros())
			}
		}
	}
	if err := writeJSON(out, table); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d schedules; * = beats all hand-written algorithms on its cell)\n",
		out, len(table.Entries))
	return nil
}

// writeCSV writes one panel, labelled with its geometry, to path.
func writeCSV(stdout io.Writer, path string, model *timing.Model, nChips int, panel []bench.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = bench.WriteTopologyCSV(f, model, nChips, panel)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return err
}

// stackByName maps the -stack flag's short names to bench stacks; the
// five core stacks are named in the order of core.Configs.
func stackByName(name string) (bench.Stack, bool) {
	if name == "rckmpi" {
		return bench.Stack{Name: "RCKMPI", RCKMPI: true}, true
	}
	i := slices.Index([]string{"blocking", "ircce", "lwnb", "balanced", "mpb"}, name)
	if i < 0 {
		return bench.Stack{}, false
	}
	cfg := core.Configs()[i]
	return bench.Stack{Name: cfg.Name(), Cfg: cfg}, true
}

// writeMetricsSnapshot renders the snapshot as a table on stdout, or as
// JSON/CSV when a -metricsout path is given (format by extension).
func writeMetricsSnapshot(stdout io.Writer, run bench.InstrumentedRun, path string) error {
	if path == "" {
		return run.Metrics.WriteTable(stdout)
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
	fmt.Fprintf(stdout, "wrote %s\n", path)
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
