package rcce_test

import (
	"testing"

	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

// Steady-state allocation budgets for the blocking point-to-point path:
// chunks move straight between private memory and the MPB, so Send and
// Recv must not allocate per message or per chunk. Per-message cost is
// the slope between a short and a long run (construction cancels).

func runSendRecv(msgs, nBytes int) {
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	chip.LaunchOne(0, func(c *scc.Core) {
		addr := c.Alloc(nBytes)
		ue := comm.UE(0)
		for i := 0; i < msgs; i++ {
			ue.Send(1, addr, nBytes)
		}
	})
	chip.LaunchOne(1, func(c *scc.Core) {
		addr := c.Alloc(nBytes)
		ue := comm.UE(1)
		for i := 0; i < msgs; i++ {
			ue.Recv(0, addr, nBytes)
		}
	})
	if err := chip.Run(); err != nil {
		panic(err)
	}
}

func perMessage(t *testing.T, nBytes, lo, hi int) float64 {
	t.Helper()
	a := testing.AllocsPerRun(3, func() { runSendRecv(lo, nBytes) })
	b := testing.AllocsPerRun(3, func() { runSendRecv(hi, nBytes) })
	return (b - a) / float64(hi-lo)
}

func TestSendRecvSmallAllocFree(t *testing.T) {
	got := perMessage(t, 32, 10, 110)
	if got > 0.05 {
		t.Fatalf("32 B Send/Recv allocates %.3f objects per message; budget 0.05", got)
	}
}

func TestSendRecvLargeAllocFree(t *testing.T) {
	// 8 KB spans many MPB chunks: the per-chunk loop must not allocate
	// per chunk.
	got := perMessage(t, 8192, 5, 55)
	if got > 0.05 {
		t.Fatalf("8 KB Send/Recv allocates %.3f objects per message; budget 0.05", got)
	}
}
