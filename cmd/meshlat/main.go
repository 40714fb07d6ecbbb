// Command meshlat explores the simulated SCC's raw communication fabric:
// per-hop MPB access latencies from a chosen core to every other core's
// MPB, and the local-access cost with and without the hardware erratum
// workaround. Useful for sanity-checking the timing model against the
// published SCC numbers (Sec. II and IV-D).
package main

import (
	"flag"
	"fmt"

	"scc/internal/fabric"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

func main() {
	from := flag.Int("from", 0, "core issuing the accesses")
	write := flag.Bool("write", false, "measure line writes instead of reads")
	flag.Parse()

	for _, fixed := range []bool{false, true} {
		model := timing.Default()
		model.HardwareBugFixed = fixed
		lat, err := measure(model, *from, *write)
		if err != nil {
			fmt.Println(err)
			return
		}
		kind := "read"
		if *write {
			kind = "write"
		}
		hw := "erratum workaround active"
		if fixed {
			hw = "hardware bug fixed"
		}
		fmt.Printf("one-line MPB %s latency from core %d (%s):\n", kind, *from, hw)
		fmt.Printf("%8s", "")
		for x := 0; x < model.MeshWidth; x++ {
			fmt.Printf("  tileX=%d        ", x)
		}
		fmt.Println()
		for y := 0; y < model.MeshHeight; y++ {
			fmt.Printf("tileY=%d ", y)
			for x := 0; x < model.MeshWidth; x++ {
				tile := y*model.MeshWidth + x
				c0, c1 := 2*tile, 2*tile+1
				fmt.Printf("  %5dns/%5dns", int64(lat[c0])*625/1000, int64(lat[c1])*625/1000)
			}
			fmt.Println()
		}
		fmt.Println()
	}
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
