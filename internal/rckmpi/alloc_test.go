package rckmpi

import (
	"testing"

	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

// runPairs runs rounds 552-element pairwise exchanges between cores 0
// and 1.
func runPairs(rounds int) {
	const n = 8 * 552
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	for id := 0; id < 2; id++ {
		chip.LaunchOne(id, func(c *scc.Core) {
			l := New(comm.UE(id))
			src, dst := c.Alloc(n), c.Alloc(n)
			for i := 0; i < rounds; i++ {
				l.sendRecvPair(1-id, src, n, dst, n)
			}
		})
	}
	if err := chip.Run(); err != nil {
		panic(err)
	}
}

// TestPairwiseExchangeAllocFree: the pairwise exchange posts both legs
// into the UE's request slots, so it allocates nothing per exchange
// (the slope between a short and a long run; construction cancels).
func TestPairwiseExchangeAllocFree(t *testing.T) {
	a := testing.AllocsPerRun(3, func() { runPairs(10) })
	b := testing.AllocsPerRun(3, func() { runPairs(110) })
	if got := (b - a) / 100; got > 0.05 {
		t.Fatalf("pairwise exchange allocates %.3f objects per exchange; budget 0.05", got)
	}
}
