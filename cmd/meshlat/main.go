// Command meshlat explores the simulated SCC's raw communication fabric:
// per-hop MPB access latencies from a chosen core to every other core's
// MPB, and the local-access cost with and without the hardware erratum
// workaround. Useful for sanity-checking the timing model against the
// published SCC numbers (Sec. II and IV-D).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"scc/internal/bench"
	"scc/internal/fabric"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

func main() { bench.Exit("meshlat", run(os.Args[1:], os.Stdout)) }

// run is the whole command: the latency table from -from on the paper's
// chip, with and without the erratum workaround.
func run(args []string, stdout io.Writer) error {
	fs := bench.CLI{FlagSet: flag.NewFlagSet("meshlat", flag.ContinueOnError)}
	from := fs.Int("from", 0, "core issuing the accesses")
	write := fs.Bool("write", false, "measure line writes instead of reads")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if np := timing.Default().NumCores(); *from < 0 || *from >= np {
		return fs.Fail("-from must be a core in [0,%d), got %d", np, *from)
	}

	kind := "read"
	if *write {
		kind = "write"
	}
	for i, hw := range []string{"erratum workaround active", "hardware bug fixed"} {
		model := timing.Default()
		model.HardwareBugFixed = i == 1
		lat, err := measure(model, *from, *write)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "one-line MPB %s latency from core %d (%s):\n", kind, *from, hw)
		fmt.Fprintf(stdout, "%8s", "")
		for x := 0; x < model.MeshWidth; x++ {
			fmt.Fprintf(stdout, "  tileX=%d        ", x)
		}
		fmt.Fprintln(stdout)
		for y := 0; y < model.MeshHeight; y++ {
			fmt.Fprintf(stdout, "tileY=%d ", y)
			for x := 0; x < model.MeshWidth; x++ {
				c0 := 2 * (y*model.MeshWidth + x) // the tile's two cores
				fmt.Fprintf(stdout, "  %5dns/%5dns", int64(lat[c0])*625/1000, int64(lat[c0+1])*625/1000)
			}
			fmt.Fprintln(stdout)
		}
		if _, err := fmt.Fprintln(stdout); err != nil {
			return err
		}
	}
	return nil
}

// measure times one line access from core `from` to every core's MPB.
func measure(model *timing.Model, from int, write bool) ([]simtime.Duration, error) {
	sys := fabric.New(model, 1)
	defer sys.Release()
	chip := sys.Chips[0]
	lat := make([]simtime.Duration, chip.NumCores())
	chip.LaunchOne(from, func(c *scc.Core) {
		buf := make([]byte, model.CacheLineBytes)
		for target := 0; target < chip.NumCores(); target++ {
			t0 := c.Now()
			if write {
				c.MPBWrite(chip.MPBBase(target), buf)
			} else {
				c.MPBRead(chip.MPBBase(target), buf)
			}
			lat[target] = c.Now() - t0
		}
	})
	return lat, sys.Run()
}
