package core

import (
	"errors"
	"math/rand"
	"testing"

	"scc/internal/fabric"
	"scc/internal/fault"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// Every collective enters through Ctx.collective, so its guards hold for
// all of them by construction. These tests exercise each guard on every
// operation, the V variants included.

// TestEveryChipLocalCollectiveRefusesAFabric: on a 2-chip context every
// operation without a hierarchical composition returns ErrCrossChip and
// simulates nothing — never nil with a chip-local result.
func TestEveryChipLocalCollectiveRefusesAFabric(t *testing.T) {
	const chips = 2
	model := timing.Topology(1, 2, 2)
	np := model.NumCores()
	sys := fabric.New(model, chips)
	blocks := make([]Block, np)
	for i := range blocks {
		blocks[i] = Block{Off: i, Len: 1}
	}
	for ci := 0; ci < chips; ci++ {
		comm := rcce.NewComm(sys.Chips[ci])
		f := sys.Port(ci)
		sys.Chips[ci].Launch(func(c *scc.Core) {
			x, err := NewCtxWith(comm.UE(c.ID), ConfigBalanced, CtxOpts{Port: f})
			if err != nil {
				t.Errorf("chip %d core %d: %v", f.Chip(), c.ID, err)
				return
			}
			src, dst := c.AllocF64(np), c.AllocF64(np)
			t0 := c.Now()
			_, rsErr := x.ReduceScatter(src, dst, np, Sum)
			for name, err := range map[string]error{
				"AllgatherV":    x.AllgatherV(src, blocks, dst),
				"AlltoallV":     x.AlltoallV(src, blocks, dst, blocks),
				"GatherV":       x.GatherV(0, src, blocks, dst),
				"ScatterV":      x.ScatterV(0, src, blocks, dst),
				"Allgather":     x.Allgather(src, 1, dst),
				"Alltoall":      x.Alltoall(src, dst, 1),
				"Gather":        x.Gather(0, src, 1, dst),
				"Scatter":       x.Scatter(0, src, 1, dst),
				"Scan":          x.Scan(src, dst, 1, Sum),
				"Reduce":        x.Reduce(0, src, dst, 1, Sum),
				"ReduceScatter": rsErr,
			} {
				if !errors.Is(err, ErrCrossChip) {
					t.Errorf("chip %d core %d: %s = %v, want ErrCrossChip", f.Chip(), c.ID, name, err)
				}
			}
			if c.Now() != t0 {
				t.Errorf("chip %d core %d: refused collectives took %d ticks", f.Chip(), c.ID, c.Now()-t0)
			}
			// The three that do span chips still run.
			if err := x.Allreduce(src, dst, 1, Sum); err != nil {
				t.Errorf("chip %d core %d: Allreduce: %v", f.Chip(), c.ID, err)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEntryValidatesBeforeSimulating: a negative count, a negative
// per-rank count, a wrong block count and negative block geometry are
// ErrInvalid from every operation that takes them, with no simulated
// time spent (a lone core would otherwise deadlock waiting for peers).
func TestEntryValidatesBeforeSimulating(t *testing.T) {
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	p := chip.NumCores()
	good := make([]Block, p)
	short := good[:p-1]
	negLen := append([]Block(nil), good...)
	negLen[3] = Block{Off: 0, Len: -1}
	negOff := append([]Block(nil), good...)
	negOff[p-1] = Block{Off: -8, Len: 1}
	chip.LaunchOne(0, func(c *scc.Core) {
		x := NewCtx(comm.UE(0), ConfigLightweight)
		src, dst := c.AllocF64(4), c.AllocF64(4)
		_, rsErr := x.ReduceScatter(src, dst, -1, Sum)
		cases := map[string]error{
			"Allreduce(n<0)":     x.Allreduce(src, dst, -1, Sum),
			"Reduce(n<0)":        x.Reduce(0, src, dst, -1, Sum),
			"Broadcast(n<0)":     x.Broadcast(0, dst, -1),
			"ReduceScatter(n<0)": rsErr,
			"Scan(n<0)":          x.Scan(src, dst, -1, Sum),
			"Allgather(nPer<0)":  x.Allgather(src, -1, dst),
			"Alltoall(nPer<0)":   x.Alltoall(src, dst, -1),
			"Scatter(nPer<0)":    x.Scatter(0, src, -1, dst),
			"Gather(nPer<0)":     x.Gather(0, src, -1, dst),
			"AlltoallV(recv)":    x.AlltoallV(src, good, dst, short),
		}
		for name, bad := range map[string][]Block{"count": short, "Len<0": negLen, "Off<0": negOff} {
			cases["AllgatherV("+name+")"] = x.AllgatherV(src, bad, dst)
			cases["AlltoallV("+name+")"] = x.AlltoallV(src, bad, dst, good)
			cases["ScatterV("+name+")"] = x.ScatterV(0, src, bad, dst)
			cases["GatherV("+name+")"] = x.GatherV(0, src, bad, dst)
		}
		for name, err := range cases {
			if !errors.Is(err, ErrInvalid) || errors.Is(err, ErrCrossChip) {
				t.Errorf("%s = %v, want plain ErrInvalid", name, err)
			}
		}
		if c.Now() != 0 {
			t.Errorf("rejected calls took %d ticks", c.Now())
		}
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
}

// healedAllgatherV runs one AllgatherV over an irregular layout on the
// 48-core chip under the self-healing runtime, optionally killing core
// victim at killAt, and returns per core the error, the result buffer,
// the healing report and the final group size, plus the time the
// collective started and the chip's final time.
func healedAllgatherV(t *testing.T, blocks []Block, victim int, killAt simtime.Time) (errs []error, out [][]float64, reps []RecoveryReport, sizes []int, start, end simtime.Time) {
	t.Helper()
	chip := scc.New(timing.Default())
	if killAt > 0 {
		fault.Install(chip, fault.NewPlan().Add(fault.Fault{Kind: fault.CoreDie, At: killAt, Core: victim}))
	}
	comm := rcce.NewComm(chip)
	p := chip.NumCores()
	n := totalLen(blocks)
	errs, out = make([]error, p), make([][]float64, p)
	reps, sizes = make([]RecoveryReport, p), make([]int, p)
	pol := DefaultHealPolicy()
	chip.Launch(func(c *scc.Core) {
		cfg := ConfigLightweight
		cfg.SelfHeal = &pol
		x := NewCtx(comm.UE(c.ID), cfg)
		b := blocks[c.ID]
		src, dst := c.AllocF64(b.Len+1), c.AllocF64(n)
		v := make([]float64, b.Len)
		for i := range v {
			v[i] = float64(c.ID)*100 + float64(i)
		}
		c.WriteF64s(src, v)
		if c.ID == 0 {
			start = c.Now()
		}
		errs[c.ID] = x.AllgatherV(src, blocks, dst)
		out[c.ID] = make([]float64, n)
		c.ReadF64s(dst, out[c.ID])
		reps[c.ID] = x.Healer().Report()
		sizes[c.ID] = x.NP()
	})
	if err := chip.Run(); err != nil && killAt == 0 {
		t.Fatal(err)
	}
	return errs, out, reps, sizes, start, chip.Now()
}

// TestAllgatherVHealsAroundADeadCore: with one core killed in the middle
// of an AllgatherV the survivors detect it, vote the attempt down, agree
// on the 47-member group, re-execute on it and all end with every
// survivor's block at its original offset. Outside the healing loop the
// ring would stall on the dead core and every survivor return
// ErrUnreachable.
func TestAllgatherVHealsAroundADeadCore(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates seconds of virtual agreement timeouts")
	}
	const victim = 17
	blocks := irregularBlocks(48, rand.New(rand.NewSource(5)), 40)

	// Fault-free first: the healing loop costs one vote and changes nothing.
	errs, out, reps, sizes, start, end := healedAllgatherV(t, blocks, victim, 0)
	for id := range errs {
		if errs[id] != nil || sizes[id] != 48 || reps[id].Votes != 1 || reps[id].Reconfigs != 0 {
			t.Fatalf("fault-free core %d: err=%v np=%d report=%+v", id, errs[id], sizes[id], reps[id])
		}
	}
	checkBlocks := func(label string, got []float64, skip int) {
		t.Helper()
		for q, b := range blocks {
			for i := 0; i < b.Len && q != skip; i++ {
				if want := float64(q)*100 + float64(i); got[b.Off+i] != want {
					t.Fatalf("%s: block %d elem %d = %v, want %v", label, q, i, got[b.Off+i], want)
				}
			}
		}
	}
	checkBlocks("fault-free core 30", out[30], -1)

	errs, out, reps, sizes, _, _ = healedAllgatherV(t, blocks, victim, (start+end)/2)
	for id := range errs {
		if id == victim {
			continue
		}
		if errs[id] != nil {
			t.Fatalf("survivor %d: %v", id, errs[id])
		}
		r := reps[id]
		if sizes[id] != 47 || r.VotesFailed < 1 || r.Reconfigs != 1 || r.Reexecs != 1 || r.Evicted != 1 || r.Epoch != reps[0].Epoch {
			t.Fatalf("survivor %d: np=%d report=%+v (core 0 epoch %d)", id, sizes[id], r, reps[0].Epoch)
		}
		checkBlocks("survivor", out[id], victim)
	}
}

// TestNewCtxWithRefusesHealingOnAFabric: a multi-chip context never
// self-heals, so a fabric port together with a self-healing policy or a
// persistent healer is ErrInvalid, not a context whose composition would
// nest one healed collective in another.
func TestNewCtxWithRefusesHealingOnAFabric(t *testing.T) {
	sys := fabric.New(timing.Topology(1, 2, 2), 2)
	ue := rcce.NewComm(sys.Chips[0]).UE(0)
	pol := DefaultHealPolicy()
	heal := ConfigBalanced
	heal.SelfHeal = &pol
	for name, c := range map[string]struct {
		cfg Config
		o   CtxOpts
	}{
		"SelfHeal": {heal, CtxOpts{Port: sys.Port(0)}},
		"Healer":   {ConfigBalanced, CtxOpts{Port: sys.Port(0), Healer: NewHealer(ue, pol)}},
	} {
		if x, err := NewCtxWith(ue, c.cfg, c.o); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s with a fabric port: NewCtxWith = %v, %v; want ErrInvalid", name, x, err)
		}
	}
}
