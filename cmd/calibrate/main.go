// Command calibrate prints the simulator's reproduction of the paper's
// per-step Allreduce speedups (Sec. IV) and per-collective averages
// (Sec. V-A) next to the paper's published values. It is the tool used
// to fit the software-overhead constants in internal/timing; see
// EXPERIMENTS.md for the recorded outcome.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"scc/internal/bench"
	"scc/internal/gcmc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

func main() { bench.Exit("calibrate", run(os.Args[1:], os.Stdout)) }

// run is the whole command; the package test diffs -quick's output against results/ladder.txt.
func run(args []string, stdout io.Writer) error {
	fs := bench.CLI{FlagSet: flag.NewFlagSet("calibrate", flag.ContinueOnError)}
	reps := fs.Int("reps", 2, "timed repetitions per point")
	quick := fs.Bool("quick", false, "only the n=552 Allreduce ladder")
	withGCMC := fs.Bool("gcmc", false, "also print the Fig. 10 application ratio ladder")
	if err := fs.Parse(args); err != nil {
		return err
	}

	model := timing.Default()

	if *withGCMC {
		p := gcmc.DefaultParams()
		p.Cycles = 25
		fmt.Fprintln(stdout, "== Fig. 10 application runtime ratios (vs blocking) ==")
		var blocking float64
		for _, r := range bench.RunFig10(model, p) {
			if r.Stack.Name == "blocking" {
				blocking = r.WallTime.Seconds()
			}
			rel := "-"
			if blocking > 0 {
				rel = fmt.Sprintf("%.3f", r.WallTime.Seconds()/blocking)
			}
			fmt.Fprintf(stdout, "  %-36s %9.1f ms  rel=%s  flag-wait=%4.1f%%\n",
				r.Stack.Name, r.WallTime.Millis(), rel, 100*r.WaitFraction())
		}
		fmt.Fprintln(stdout, "  paper: RCKMPI 2.17, blocking 1.0, iRCCE 0.904, lightweight 0.767, balanced 0.719, MPB 0.686")
		fmt.Fprintln(stdout)
	}

	fmt.Fprintln(stdout, "== Allreduce optimization ladder at n = 552 (Sec. IV) ==")
	stacks := bench.StacksFor(bench.OpAllreduce)
	lat := make(map[string]simtime.Duration)
	for _, st := range stacks {
		d := bench.Measure(model, bench.OpAllreduce, st, 552, *reps)
		lat[st.Name] = d
		fmt.Fprintf(stdout, "  %-36s %10.1f us\n", st.Name, d.Micros())
	}
	step := func(from, to, paper string) {
		f, t := lat[from], lat[to]
		if t == 0 {
			return
		}
		fmt.Fprintf(stdout, "  %-24s -> %-28s speedup %.2fx   (paper: %s)\n",
			from, to, float64(f)/float64(t), paper)
	}
	step("blocking", "iRCCE", "~1.25x")
	step("iRCCE", "lightweight non-blocking", "~1.65x")
	step("lightweight non-blocking", "lightweight non-blocking, balanced", "~1.28x")
	step("lightweight non-blocking, balanced", "MPB-based Allreduce", "~1.10x")
	step("blocking", "lightweight non-blocking, balanced", "(combined)")
	_, err := fmt.Fprintf(stdout, "  RCKMPI vs blocking: %.2fx worse (paper: ~2-5x in most panels)\n",
		float64(lat["RCKMPI"])/float64(lat["blocking"]))
	if *quick || err != nil {
		return err
	}

	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "== Per-collective average speedups over [500..700] sample (Sec. V-A) ==")
	sizes := []int{500, 524, 552, 575, 600, 648, 700}
	ops := bench.AllOps()
	panels := make([][]bench.Series, len(ops))
	for i, op := range ops {
		panels[i] = bench.NewRunner(1).Panel(model, op, sizes, *reps)
	}
	rows, err := bench.SummarizePanels(ops, panels)
	if err != nil {
		return err
	}
	for i, op := range ops {
		var baseline, rk bench.Series
		for _, s := range panels[i] {
			switch {
			case s.Stack.Name == "blocking":
				baseline = s
			case s.Stack.RCKMPI:
				rk = s
			}
		}
		// rows are sorted by op, not in AllOps order.
		row := rows[slices.IndexFunc(rows, func(r bench.SummaryRow) bool { return r.Op == op })]
		fmt.Fprintf(stdout, "  %-14s best=%-36s speedup %.2fx   blocking mean %9.1f us   RCKMPI/blocking %.2fx\n",
			op, row.BestName, row.Speedup, bench.MeanLatency(baseline),
			bench.MeanLatency(rk)/bench.MeanLatency(baseline))
	}
	return nil
}
