package lwnb

import (
	"testing"

	"scc/internal/core"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

func TestLightweightDelivers(t *testing.T) {
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	n := 33
	var got []float64
	chip.LaunchOne(10, func(core *scc.Core) {
		lib := New(comm.UE(10))
		a := core.AllocF64(n)
		v := make([]float64, n)
		for i := range v {
			v[i] = -float64(i)
		}
		core.WriteF64s(a, v)
		lib.Wait(lib.ISend(20, a, 8*n))
	})
	chip.LaunchOne(20, func(core *scc.Core) {
		lib := New(comm.UE(20))
		a := core.AllocF64(n)
		lib.Wait(lib.IRecv(10, a, 8*n))
		got = make([]float64, n)
		core.ReadF64s(a, got)
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != -float64(i) {
			t.Fatalf("payload wrong at %d", i)
		}
	}
}

func TestSlotReusableAfterCompletion(t *testing.T) {
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	rounds := 0
	chip.LaunchOne(0, func(core *scc.Core) {
		lib := New(comm.UE(0))
		a := core.AllocF64(4)
		for i := 0; i < 8; i++ {
			lib.Wait(lib.ISend(1, a, 32))
		}
		rounds = 8
	})
	chip.LaunchOne(1, func(core *scc.Core) {
		lib := New(comm.UE(1))
		a := core.AllocF64(4)
		for i := 0; i < 8; i++ {
			lib.Wait(lib.IRecv(0, a, 32))
		}
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds != 8 {
		t.Fatal("rounds incomplete")
	}
}

func TestLightweightCheaperThanIRCCEPingPong(t *testing.T) {
	// Same protocol, lower software overhead: a lightweight ping-pong of
	// small messages must beat an iRCCE-cost ping-pong (Sec. IV-B).
	run := func(kind core.TransportKind) simtime.Time {
		m := timing.Default()
		chip := scc.New(m)
		comm := rcce.NewComm(chip)
		costs := kind.Costs(m)
		chip.LaunchOne(0, func(core *scc.Core) {
			ue := comm.UE(0)
			a := core.AllocF64(8)
			for i := 0; i < 20; i++ {
				ue.WaitAll(costs, ue.PostSend(costs, 1, a, 64))
				ue.WaitAll(costs, ue.PostRecv(costs, 1, a, 64))
			}
		})
		chip.LaunchOne(1, func(core *scc.Core) {
			ue := comm.UE(1)
			a := core.AllocF64(8)
			for i := 0; i < 20; i++ {
				ue.WaitAll(costs, ue.PostRecv(costs, 0, a, 64))
				ue.WaitAll(costs, ue.PostSend(costs, 0, a, 64))
			}
		})
		if err := chip.Run(); err != nil {
			t.Fatal(err)
		}
		return chip.Now()
	}
	ircceTime := run(core.TransportIRCCE)
	lwTime := run(core.TransportLightweight)
	if lwTime >= ircceTime {
		t.Fatalf("lightweight (%v) not faster than iRCCE (%v)", lwTime, ircceTime)
	}
}

func TestWaitAllMixedSendRecv(t *testing.T) {
	// One outstanding send plus one receive, waited together - the exact
	// usage pattern of the ring exchange (Fig. 5).
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	var got []float64
	chip.LaunchOne(4, func(core *scc.Core) {
		ue := comm.UE(4)
		lib := New(ue)
		src := core.AllocF64(8)
		dst := core.AllocF64(8)
		core.WriteF64s(src, []float64{4, 4, 4, 4, 4, 4, 4, 4})
		s := lib.ISend(5, src, 64)
		r := lib.IRecv(5, dst, 64)
		ue.WaitAll(Costs(core.Chip().Model), s, r)
		got = make([]float64, 8)
		core.ReadF64s(dst, got)
	})
	chip.LaunchOne(5, func(core *scc.Core) {
		ue := comm.UE(5)
		lib := New(ue)
		src := core.AllocF64(8)
		dst := core.AllocF64(8)
		core.WriteF64s(src, []float64{5, 5, 5, 5, 5, 5, 5, 5})
		s := lib.ISend(4, src, 64)
		r := lib.IRecv(4, dst, 64)
		ue.WaitAll(Costs(core.Chip().Model), s, r)
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 5 {
			t.Fatalf("element %d = %v, want 5", i, v)
		}
	}
}
