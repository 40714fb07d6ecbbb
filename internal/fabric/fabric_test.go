package fabric_test

import (
	"errors"
	"strings"
	"testing"

	"scc/internal/core"
	"scc/internal/fabric"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// killer is a scc.FaultHook that declares one core dead from a given
// time on.
type killer struct {
	core int
	at   simtime.Time
}

func (k killer) StallCore(int, simtime.Time) simtime.Duration       { return 0 }
func (k killer) CoreDead(core int, now simtime.Time) bool           { return core == k.core && now >= k.at }
func (k killer) DropFlagWrite(int, int, simtime.Time) bool          { return false }
func (k killer) FilterMPBWrite(int, int, []byte, simtime.Time) bool { return false }

// single is one chip with its communicator and run entry point, built
// either bare or as the 1-chip fabric.
type single struct {
	chip *scc.Chip
	comm *rcce.Comm
	run  func() error
}

func bare(m *timing.Model) single {
	chip := scc.New(m)
	return single{chip, rcce.NewComm(chip), chip.Run}
}

func oneChipFabric(m *timing.Model) single {
	sys := fabric.New(m, 1)
	return single{sys.Chips[0], sys.Comms[0], sys.Run}
}

// TestOneChipFabricIsTheBareChip pins what lets every single-chip user
// build through fabric.New: a 1-chip fabric is indistinguishable from
// scc.New + rcce.NewComm in process names, error text and event
// sequence.
func TestOneChipFabricIsTheBareChip(t *testing.T) {
	m := timing.Default()

	// Process names: a deadlock report names the blocked process.
	deadlock := func(s single) string {
		s.chip.LaunchOne(0, func(c *scc.Core) {
			c.WaitFlag(s.comm.FlagAddr(0, 1, rcce.FlagSent), 1) // nobody sets it
		})
		err := s.run()
		if err == nil {
			t.Fatal("a wait nobody satisfies did not deadlock")
		}
		return err.Error()
	}
	want := deadlock(bare(m))
	if got := deadlock(oneChipFabric(m)); got != want {
		t.Errorf("deadlock report differs:\n fabric: %s\n   bare: %s", got, want)
	}
	if !strings.Contains(want, "core00") || strings.Contains(want, "chip0.") {
		t.Errorf("unexpected process naming in %q", want)
	}

	// A core death surfaces as scc.Chip.Run's ErrCoreDead, text included.
	death := func(s single) error {
		s.chip.Fault = killer{core: 1, at: 100}
		s.chip.LaunchOne(0, func(c *scc.Core) {
			c.WaitFlag(s.comm.FlagAddr(0, 1, rcce.FlagSent), 1)
		})
		s.chip.LaunchOne(1, func(c *scc.Core) {
			c.Compute(simtime.Microseconds(1))
			c.SetFlag(s.comm.FlagAddr(0, 1, rcce.FlagSent), 1) // dies here
		})
		return s.run()
	}
	wantErr := death(bare(m))
	gotErr := death(oneChipFabric(m))
	if !errors.Is(gotErr, scc.ErrCoreDead) || gotErr.Error() != wantErr.Error() {
		t.Errorf("core-death error differs:\n fabric: %v\n   bare: %v", gotErr, wantErr)
	}

	// One full-chip Allreduce: same elapsed ticks, same scheduler events.
	allreduce := func(s single) (simtime.Time, uint64, uint64) {
		const n = 552
		s.chip.Launch(func(c *scc.Core) {
			x := core.NewCtx(s.comm.UE(c.ID), core.ConfigBalanced)
			src, dst := c.AllocF64(n), c.AllocF64(n)
			if err := x.Allreduce(src, dst, n, core.Sum); err != nil {
				t.Errorf("core %d: %v", c.ID, err)
			}
		})
		if err := s.run(); err != nil {
			t.Fatal(err)
		}
		h, f := s.chip.Engine.SchedStats()
		return s.chip.Now(), h, f
	}
	bt, bh, bf := allreduce(bare(m))
	ft, fh, ff := allreduce(oneChipFabric(m))
	if ft != bt || fh != bh || ff != bf {
		t.Errorf("allreduce differs: fabric %d ticks (%d handoffs, %d fast), bare %d (%d, %d)",
			ft, fh, ff, bt, bh, bf)
	}
}

// TestTwoChipSendRecvTiming pins the fabric's cost model on the default
// preset: every message pays the gateway's per-message software cost on
// both sides, a fixed head latency, and serialization at the fabric
// width; and a directed chip pair carries one message at a time, so a
// back-to-back second message is injected only once the first has fully
// arrived and been drained.
func TestTwoChipSendRecvTiming(t *testing.T) {
	m := timing.Default()
	const n = 100
	var (
		sw   = simtime.CoreCycles(m.FabricPerMessageCoreCycles)
		head = simtime.MeshCycles(m.FabricBaseLatencyMeshCycles)
		ser  = simtime.MeshCycles(int64(8 * n / m.FabricBytesPerMeshCycle))
	)
	sys := fabric.New(m, 2)
	if got := sys.NumCores(); got != 2*m.NumCores() {
		t.Fatalf("NumCores = %d", got)
	}
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = float64(i), float64(-i)
	}
	var sent, recvd [2]simtime.Time
	gotA, gotB := make([]float64, n), make([]float64, n)
	sys.Chips[0].LaunchOne(0, func(c *scc.Core) {
		p := sys.Port(0)
		p.Send(c, 1, a)
		sent[0] = c.Now()
		p.Send(c, 1, b)
		sent[1] = c.Now()
	})
	sys.Chips[1].LaunchOne(0, func(c *scc.Core) {
		p := sys.Port(1)
		p.Recv(c, 0, gotA)
		recvd[0] = c.Now()
		p.Recv(c, 0, gotB)
		recvd[1] = c.Now()
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if gotA[i] != a[i] || gotB[i] != b[i] {
			t.Fatalf("payload mismatch at %d: %v %v", i, gotA[i], gotB[i])
		}
	}
	// First message: injected once the sender paid its software cost; the
	// sender is busy until the tail is on the wire, the receiver holds the
	// data one head latency later.
	inj := sw
	if sent[0] != inj+ser || recvd[0] != inj+head+ser {
		t.Errorf("first message: sent at %d, received at %d; want %d and %d",
			sent[0], recvd[0], inj+ser, inj+head+ser)
	}
	// Second message: the sender is ready long before, but the pair's one
	// slot frees only when the first message is drained.
	inj2 := recvd[0]
	if sent[1] != inj2+ser || recvd[1] != inj2+head+ser {
		t.Errorf("second message: sent at %d, received at %d; want %d and %d",
			sent[1], recvd[1], inj2+ser, inj2+head+ser)
	}
}
