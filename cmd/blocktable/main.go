// Command blocktable regenerates the paper's Fig. 6: the block sizes and
// worst-case imbalance ratios of the standard RCCE_comm partitioning
// versus the paper's balanced partitioning, for the vector lengths the
// figure shows (528, 552, 575 elements over 48 cores).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"scc/internal/bench"
	"scc/internal/core"
)

func main() { bench.Exit("blocktable", run(os.Args[1:], os.Stdout)) }

// maxCores bounds -p at the 100x100 mesh, the largest one the simulator
// builds: both partitions allocate one block per core per length.
const maxCores = 10000

// run is the whole command; the package test diffs its default output
// against results/fig6.txt.
func run(args []string, stdout io.Writer) error {
	fs := bench.CLI{FlagSet: flag.NewFlagSet("blocktable", flag.ContinueOnError)}
	p := fs.Int("p", 48, "number of cores/blocks")
	extraFlag := fs.String("n", "", "comma-separated extra vector lengths to tabulate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *p < 1 || *p > maxCores {
		return fs.Fail("-p must be between 1 and %d, got %d", maxCores, *p)
	}
	extra, err := bench.ParseCounts("-n", *extraFlag)
	if err != nil {
		return fs.Fail("%v", err)
	}
	lengths := append([]int{528, 552, 575}, extra...)

	fmt.Fprintf(stdout, "Fig. 6: block sizes over %d cores\n\n", *p)
	for _, n := range lengths {
		std, bal := core.Partition(n, *p), core.PartitionBalanced(n, *p)
		fmt.Fprintf(stdout, "%d elements:\n", n)
		fmt.Fprintf(stdout, "  (a) standard (RCCE_comm):  %s   ratio %.1f:1\n",
			sizesSummary(std), core.ImbalanceRatio(std))
		fmt.Fprintf(stdout, "  (b) optimized (balanced):  %s   ratio %.1f:1\n",
			sizesSummary(bal), core.ImbalanceRatio(bal))
	}
	_, err = fmt.Fprintln(stdout, "\npaper: 528 -> 1:1, 552 -> ~3.2:1 vs ~1.1:1, 575 -> ~5.3:1 vs ~1.1:1")
	return err
}

// sizesSummary prints the distinct block sizes with their counts, e.g.
// "1x35 + 47x11".
func sizesSummary(blocks []core.Block) string {
	counts, order := map[int]int{}, []int{}
	for _, b := range blocks {
		if counts[b.Len] == 0 {
			order = append(order, b.Len)
		}
		counts[b.Len]++
	}
	parts := make([]string, 0, len(order))
	for _, l := range order {
		parts = append(parts, fmt.Sprintf("%dx%d", counts[l], l))
	}
	return strings.Join(parts, " + ")
}
