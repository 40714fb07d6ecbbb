// Command gcmcapp regenerates the paper's Fig. 10: the runtime of the
// thermodynamic GCMC application linked against each communication
// stack, as horizontal bars, plus the profiling observation of Sec. IV-A
// (share of time spent waiting on MPB flags).
//
// The simulated run is scaled down (default 40 GCMC cycles instead of
// the paper's production run); the figure's information is in the bar
// *ratios*, which are cycle-count independent once past warm-up.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"scc/internal/bench"
	"scc/internal/gcmc"
	"scc/internal/timing"
)

func main() { bench.Exit("gcmcapp", run(os.Args[1:], os.Stdout)) }

// run is the whole command: it parses args, runs the application under
// the six stacks and writes the figure to stdout (the package test diffs
// that output against results/fig10.txt). A rejected command line comes
// back as a bench.UsageError, already reported on stderr.
func run(args []string, stdout io.Writer) error {
	// bench.CLI for its usage-error plumbing alone: none of the sweep flags.
	fs := bench.CLI{FlagSet: flag.NewFlagSet("gcmcapp", flag.ContinueOnError)}
	cycles := fs.Int("cycles", 40, "GCMC cycles to simulate")
	particles := fs.Int("particles", 0, "override particle count (0 = default workload)")
	seed := fs.Int64("seed", 1, "Monte Carlo seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cycles < 1 {
		return fs.Fail("-cycles must be at least 1, got %d", *cycles)
	}
	if *particles < 0 {
		return fs.Fail("-particles must be non-negative, got %d", *particles)
	}

	p := gcmc.DefaultParams()
	p.Cycles = *cycles
	p.Seed = *seed
	if *particles > 0 {
		p.NumParticles = *particles
	}

	fmt.Fprintf(stdout, "Fig. 10: GCMC application performance (%d cycles, %d particles, %d k-vectors)\n\n",
		p.Cycles, p.NumParticles, p.NumKVecs)

	results := bench.RunFig10(timing.Default(), p)
	var blocking float64
	var maxWall float64
	for _, r := range results {
		if r.Stack.Name == "blocking" {
			blocking = r.WallTime.Seconds()
		}
		if w := r.WallTime.Seconds(); w > maxWall {
			maxWall = w
		}
	}
	for _, r := range results {
		w := r.WallTime.Seconds()
		barLen := int(40 * w / maxWall)
		fmt.Fprintf(stdout, "  %-36s %s %8.1f ms  (%.2fx vs blocking, %4.1f%% flag-wait)\n",
			r.Stack.Name, strings.Repeat("#", barLen), r.WallTime.Millis(),
			w/blocking, 100*r.WaitFraction())
	}
	fin := results[len(results)-1]
	fmt.Fprintf(stdout, "\n  physics check: final N=%d, E=%.4f, accepted %d/%d moves, %d Allreduce(552) calls\n",
		fin.FinalN, fin.FinalEnergy, fin.Accepted, fin.Attempted, fin.Allreduces)
	fmt.Fprintln(stdout, "  paper bars:  RCKMPI 55:27  blocking 25:36  iRCCE 23:09  lightweight 19:38  balanced 18:24  MPB 17:33")
	_, err := fmt.Fprintf(stdout, "  combined optimization speedup vs blocking: %.2fx (paper: >1.40x)\n",
		blocking/fin.WallTime.Seconds())
	return err
}
