package ircce

import (
	"testing"

	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

func TestISendIRecvDelivers(t *testing.T) {
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	n := 77
	var got []float64
	chip.LaunchOne(2, func(core *scc.Core) {
		lib := New(comm.UE(2))
		a := core.AllocF64(n)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i) * 3
		}
		core.WriteF64s(a, v)
		s := lib.ISend(9, a, 8*n)
		if lib.length != 1 {
			t.Errorf("pending = %d, want 1", lib.length)
		}
		lib.Wait(s)
		if lib.length != 0 {
			t.Errorf("pending after wait = %d, want 0", lib.length)
		}
	})
	chip.LaunchOne(9, func(core *scc.Core) {
		lib := New(comm.UE(9))
		a := core.AllocF64(n)
		r := lib.IRecv(2, a, 8*n)
		lib.Wait(r)
		got = make([]float64, n)
		core.ReadF64s(a, got)
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != float64(i)*3 {
			t.Fatalf("payload wrong at %d", i)
		}
	}
}

func TestIRCCECostsComeFromModel(t *testing.T) {
	// Doubling the model's iRCCE post overhead must slow a ping-pong.
	run := func(post int64) simtime.Time {
		m := timing.Default()
		m.OverheadIRCCEPost = post
		chip := scc.New(m)
		comm := rcce.NewComm(chip)
		chip.LaunchOne(0, func(core *scc.Core) {
			lib := New(comm.UE(0))
			a := core.AllocF64(8)
			for i := 0; i < 10; i++ {
				s := lib.ISend(1, a, 64)
				lib.Wait(s)
				r := lib.IRecv(1, a, 64)
				lib.Wait(r)
			}
		})
		chip.LaunchOne(1, func(core *scc.Core) {
			lib := New(comm.UE(1))
			a := core.AllocF64(8)
			for i := 0; i < 10; i++ {
				r := lib.IRecv(0, a, 64)
				lib.Wait(r)
				s := lib.ISend(0, a, 64)
				lib.Wait(s)
			}
		})
		if err := chip.Run(); err != nil {
			t.Fatal(err)
		}
		return chip.Now()
	}
	slow, fast := run(6000), run(500)
	if slow <= fast {
		t.Fatalf("higher post overhead not reflected: %v vs %v", slow, fast)
	}
}
