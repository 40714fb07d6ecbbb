package rcce

import (
	"bytes"
	"errors"
	"testing"

	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// dropHook is a minimal scc.FaultHook for protocol tests: it drops the
// first nDropFlag flag writes by a given core at or after a trigger time,
// and corrupts the first nCorrupt bulk writes.
type dropHook struct {
	core      int
	after     simtime.Time
	skipFlag  int // let this many matching flag writes through first
	nDropFlag int
	nCorrupt  int
}

func (h *dropHook) StallCore(core int, now simtime.Time) simtime.Duration { return 0 }
func (h *dropHook) CoreDead(core int, now simtime.Time) bool              { return false }

func (h *dropHook) DropFlagWrite(writer, off int, now simtime.Time) bool {
	if writer != h.core || now < h.after || h.nDropFlag <= 0 {
		return false
	}
	if h.skipFlag > 0 {
		h.skipFlag--
		return false
	}
	h.nDropFlag--
	return true
}

func (h *dropHook) FilterMPBWrite(writer, off int, data []byte, now simtime.Time) bool {
	if writer == h.core && now >= h.after && h.nCorrupt > 0 {
		h.nCorrupt--
		for i := range data {
			data[i] ^= 0xA5
		}
	}
	return false
}

// fill writes a recognizable pattern of n float64s.
func fill(core *scc.Core, a scc.Addr, n int, scale float64) {
	v := make([]float64, n)
	for i := range v {
		v[i] = scale + float64(i)
	}
	core.WriteF64s(a, v)
}

func checkVals(t *testing.T, core *scc.Core, a scc.Addr, n int, scale float64) {
	t.Helper()
	got := make([]float64, n)
	core.ReadF64s(a, got)
	for i, v := range got {
		if v != scale+float64(i) {
			t.Fatalf("value[%d] = %v, want %v", i, v, scale+float64(i))
		}
	}
}

func runRobustPair(t *testing.T, hook scc.FaultHook, n int) (simtime.Time, RecoveryStats) {
	t.Helper()
	chip := scc.New(timing.Default())
	chip.Fault = hook
	comm := NewComm(chip)
	costs := NBCosts{Post: 500, Wait: 400, Progress: 300}
	pol := Policy{Timeout: simtime.Microseconds(200), MaxRetries: 8}
	var stats RecoveryStats
	chip.LaunchOne(0, func(core *scc.Core) {
		u := comm.UE(0)
		a := core.AllocF64(n)
		fill(core, a, n, 1000)
		if err := u.SendRobust(costs, pol, 1, a, 8*n); err != nil {
			t.Errorf("SendRobust: %v", err)
		}
		stats.Add(u.Recovery())
	})
	chip.LaunchOne(1, func(core *scc.Core) {
		u := comm.UE(1)
		a := core.AllocF64(n)
		if err := u.RecvRobust(costs, pol, 0, a, 8*n); err != nil {
			t.Errorf("RecvRobust: %v", err)
		}
		checkVals(t, core, a, n, 1000)
		stats.Add(u.Recovery())
	})
	if err := chip.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return chip.Now(), stats
}

func TestRobustSendRecvFaultFree(t *testing.T) {
	_, stats := runRobustPair(t, nil, 1000) // multi-chunk: 8000 B > 6528 B region
	if stats.Retransmits != 0 || stats.Nacks != 0 {
		t.Fatalf("fault-free run did defensive work: %+v", stats)
	}
}

func TestRobustRecoversLostFlagWrite(t *testing.T) {
	// Drop one flag write by the sender early on: the sent announcement
	// vanishes and the timeout/retransmit path must recover it.
	end, stats := runRobustPair(t, &dropHook{core: 0, nDropFlag: 1}, 64)
	if stats.Timeouts == 0 || stats.Retransmits == 0 {
		t.Fatalf("expected timeout+retransmit recovery, got %+v", stats)
	}
	if stats.Recovery <= 0 {
		t.Fatalf("recovery latency not measured: %+v", stats)
	}
	// Determinism: same fault, same latency.
	end2, stats2 := runRobustPair(t, &dropHook{core: 0, nDropFlag: 1}, 64)
	if end != end2 || stats != stats2 {
		t.Fatalf("recovery not deterministic: %v/%+v vs %v/%+v", end, stats, end2, stats2)
	}
}

func TestRobustRecoversLostAck(t *testing.T) {
	// Drop the receiver's ACK write (its second flag write; the first is
	// the local clear of the sent flag): the sender must recover via the
	// progress byte or a duplicate retransmission.
	_, stats := runRobustPair(t, &dropHook{core: 1, skipFlag: 1, nDropFlag: 1}, 64)
	if stats.Timeouts == 0 {
		t.Fatalf("expected a timeout, got %+v", stats)
	}
	if stats.LostAcks == 0 && stats.DupAcks == 0 {
		t.Fatalf("expected lost-ACK recovery, got %+v", stats)
	}
}

func TestRobustDetectsCorruption(t *testing.T) {
	// Corrupt the sender's first bulk MPB write (the data chunk): the
	// checksum must catch it and a NACK must trigger retransmission.
	_, stats := runRobustPair(t, &dropHook{core: 0, nCorrupt: 1}, 64)
	if stats.Nacks == 0 {
		t.Fatalf("corruption not NACKed: %+v", stats)
	}
	if stats.Retransmits == 0 {
		t.Fatalf("corrupt chunk not retransmitted: %+v", stats)
	}
}

func TestRobustExchangeFullDuplex(t *testing.T) {
	chip := scc.New(timing.Default())
	comm := NewComm(chip)
	costs := NBCosts{Post: 500, Wait: 400, Progress: 300}
	pol := DefaultPolicy()
	const n = 256
	for id := 0; id < 2; id++ {
		id := id
		chip.LaunchOne(id, func(core *scc.Core) {
			u := comm.UE(id)
			src := core.AllocF64(n)
			dst := core.AllocF64(n)
			fill(core, src, n, float64(100*(id+1)))
			peer := 1 - id
			// Both cores send first (no odd/even ordering): full duplex
			// must not deadlock.
			if err := u.ExchangeRobust(costs, pol, peer, src, 8*n, peer, dst, 8*n); err != nil {
				t.Errorf("ExchangeRobust: %v", err)
			}
			checkVals(t, core, dst, n, float64(100*(peer+1)))
		})
	}
	if err := chip.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRobustUnreachablePeer(t *testing.T) {
	// Nobody ever receives: the sender must give up with ErrUnreachable
	// instead of hanging, and the engine must not report a deadlock.
	chip := scc.New(timing.Default())
	comm := NewComm(chip)
	pol := Policy{Timeout: simtime.Microseconds(50), MaxRetries: 3}
	var sendErr error
	chip.LaunchOne(0, func(core *scc.Core) {
		u := comm.UE(0)
		a := core.AllocF64(8)
		sendErr = u.SendRobust(NBCosts{Post: 500, Wait: 400}, pol, 1, a, 64)
	})
	if err := chip.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(sendErr, ErrUnreachable) {
		t.Fatalf("sendErr = %v, want ErrUnreachable", sendErr)
	}
}

// TestAbandonedRobustTransferFreesItsSlot: hardened transfers run out
// of the same two slots as posted ones, so a transfer that gave up on a
// silent peer must leave its slot free. A plain post in the same
// direction afterwards completes with a live peer instead of draining
// the dead request forever.
func TestAbandonedRobustTransferFreesItsSlot(t *testing.T) {
	pol := Policy{Timeout: simtime.Microseconds(50), MaxRetries: 3}
	costs := NBCosts{Post: 500, Wait: 400, Progress: 100}
	for _, kind := range []ReqKind{ReqSend, ReqRecv} {
		chip := scc.New(timing.Default())
		comm := NewComm(chip)
		var robustErr error
		var got []float64
		chip.LaunchOne(0, func(core *scc.Core) {
			u := comm.UE(0)
			a := core.AllocF64(8)
			fill(core, a, 8, 10)
			// Core 1 never runs: the hardened transfer gives up on it.
			if kind == ReqSend {
				robustErr = u.SendRobust(costs, pol, 1, a, 64)
				u.WaitAll(costs, u.PostSend(costs, 2, a, 64))
			} else {
				robustErr = u.RecvRobust(costs, pol, 1, a, 64)
				u.WaitAll(costs, u.PostRecv(costs, 2, a, 64))
				got = make([]float64, 8)
				core.ReadF64s(a, got)
			}
		})
		chip.LaunchOne(2, func(core *scc.Core) {
			u := comm.UE(2)
			a := core.AllocF64(8)
			fill(core, a, 8, 20)
			if kind == ReqSend {
				u.WaitAll(costs, u.PostRecv(costs, 0, a, 64))
				checkVals(t, core, a, 8, 10)
			} else {
				u.WaitAll(costs, u.PostSend(costs, 0, a, 64))
			}
		})
		if err := chip.Run(); err != nil {
			t.Fatalf("%v: Run: %v", kind, err)
		}
		if !errors.Is(robustErr, ErrUnreachable) {
			t.Fatalf("%v: hardened err = %v, want ErrUnreachable", kind, robustErr)
		}
		for i, v := range got {
			if v != 20+float64(i) {
				t.Fatalf("%v: value[%d] = %v after the abandoned transfer", kind, i, v)
			}
		}
	}
}

// TestRecoveryStatsGiveUps: a give-up is counted where a retry budget
// runs out (a robust op and the bounded group barrier), and Add keeps
// the earliest one, which a zero value never sets.
func TestRecoveryStatsGiveUps(t *testing.T) {
	// exhaust runs op alone on core 0 of a fresh chip (its peer never
	// shows up) and returns core 0's stats and when op returned.
	exhaust := func(op func(u *UE, core *scc.Core) error) (RecoveryStats, simtime.Time) {
		chip := scc.New(timing.Default())
		comm := NewComm(chip)
		var stats RecoveryStats
		var done simtime.Time
		chip.LaunchOne(0, func(core *scc.Core) {
			u := comm.UE(0)
			if err := op(u, core); !errors.Is(err, ErrUnreachable) {
				t.Errorf("err = %v, want ErrUnreachable", err)
			}
			stats, done = u.Recovery(), core.Now()
		})
		if err := chip.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return stats, done
	}
	pol := Policy{Timeout: simtime.Microseconds(50), MaxRetries: 3}
	sum := func(ss ...RecoveryStats) (RecoveryStats, simtime.Time) {
		var s RecoveryStats
		for _, s2 := range ss {
			s.Add(s2)
		}
		return s, -1
	}
	for _, tc := range []struct {
		name     string
		stats    func() (RecoveryStats, simtime.Time) // stats, and when the give-up surfaced (-1: not run)
		giveUps  int64
		firstAt  simtime.Time // checked when the stats were summed
		timeouts int64
	}{
		{"zero values", func() (RecoveryStats, simtime.Time) {
			return sum(RecoveryStats{}, RecoveryStats{Timeouts: 2}, RecoveryStats{})
		}, 0, 0, 2},
		{"earliest kept", func() (RecoveryStats, simtime.Time) {
			return sum(RecoveryStats{GiveUps: 1, FirstGiveUp: 700}, RecoveryStats{},
				RecoveryStats{GiveUps: 2, FirstGiveUp: 300}, RecoveryStats{GiveUps: 1, FirstGiveUp: 500})
		}, 4, 300, 0},
		{"robust op", func() (RecoveryStats, simtime.Time) {
			return exhaust(func(u *UE, core *scc.Core) error {
				return u.SendRobust(NBCosts{Post: 500, Wait: 400}, pol, 1, core.AllocF64(8), 64)
			})
		}, 1, 0, 4},
		{"group barrier", func() (RecoveryStats, simtime.Time) {
			return exhaust(func(u *UE, core *scc.Core) error {
				return u.BarrierGroupRobust([]int{0, 1}, pol)
			})
		}, 1, 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, done := tc.stats()
			if s.GiveUps != tc.giveUps || s.Timeouts != tc.timeouts {
				t.Fatalf("%+v: want %d give-ups, %d timeouts", s, tc.giveUps, tc.timeouts)
			}
			switch {
			case done < 0 && s.FirstGiveUp != tc.firstAt:
				t.Errorf("FirstGiveUp %d, want %d", s.FirstGiveUp, tc.firstAt)
			case done >= 0 && (s.FirstGiveUp <= 0 || s.FirstGiveUp > done):
				t.Errorf("FirstGiveUp %d, want in (0, %d]", s.FirstGiveUp, done)
			}
		})
	}
}

func TestBarrierGroup(t *testing.T) {
	chip := scc.New(timing.Default())
	comm := NewComm(chip)
	members := []int{1, 3, 5, 7}
	reached := make([]simtime.Time, 8)
	for _, id := range members {
		id := id
		chip.LaunchOne(id, func(core *scc.Core) {
			u := comm.UE(id)
			if id == 3 {
				core.Compute(simtime.Microseconds(500)) // straggler
			}
			u.BarrierGroup(members)
			reached[id] = core.Now()
		})
	}
	if err := chip.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, id := range members {
		if reached[id] < simtime.Time(simtime.Microseconds(500)) {
			t.Fatalf("core %d passed the barrier at %v, before the straggler", id, reached[id])
		}
	}
}

// bumpHook corrupts every bulk MPB write of one core by adding one to
// each byte. Not an involution, so a hook that reached the sender's
// private memory would leave it changed after any number of retransmits.
type bumpHook struct{ core int }

func (bumpHook) StallCore(int, simtime.Time) simtime.Duration { return 0 }
func (bumpHook) CoreDead(int, simtime.Time) bool              { return false }
func (bumpHook) DropFlagWrite(int, int, simtime.Time) bool    { return false }
func (h bumpHook) FilterMPBWrite(writer, off int, data []byte, now simtime.Time) bool {
	if writer == h.core {
		for i := range data {
			data[i]++
		}
	}
	return false
}

// TestPutUnderCorruptingHookKeepsPrivateMemory: Put moves bytes straight
// from private memory to the MPB, so the fault hook must see a copy. A
// hook that corrupts every bulk write of the sender changes what lands
// in the MPB and never the sender's private bytes, and the hardened
// receiver NACKs the corrupted chunks until the sender gives up.
func TestPutUnderCorruptingHookKeepsPrivateMemory(t *testing.T) {
	const n = 64 // one chunk
	chip := scc.New(timing.Default())
	chip.Fault = bumpHook{core: 0}
	comm := NewComm(chip)
	costs := NBCosts{Post: 500, Wait: 400, Progress: 300}
	pol := Policy{Timeout: simtime.Microseconds(50), MaxRetries: 3}
	var want []byte
	var sendErr, recvErr error
	var recv RecoveryStats
	chip.LaunchOne(0, func(core *scc.Core) {
		u := comm.UE(0)
		a := core.AllocF64(n)
		fill(core, a, n, 1000)
		want = append([]byte(nil), core.PrivBytes(a, 8*n)...)

		u.Put(a, comm.DataBase(0), 8*n)
		if got := core.PrivBytes(a, 8*n); !bytes.Equal(got, want) {
			t.Error("Put under a corrupting hook changed the sender's private memory")
		}
		landed := make([]byte, 8*n)
		core.MPBRead(comm.DataBase(0), landed)
		if landed[0] != want[0]+1 || landed[8*n-1] != want[8*n-1]+1 {
			t.Errorf("the MPB holds % x … % x, want the hook's corruption of % x … % x", landed[0], landed[8*n-1], want[0], want[8*n-1])
		}

		sendErr = u.SendRobust(costs, pol, 1, a, 8*n)
		if got := core.PrivBytes(a, 8*n); !bytes.Equal(got, want) {
			t.Error("SendRobust under a corrupting hook changed the sender's private memory")
		}
	})
	chip.LaunchOne(1, func(core *scc.Core) {
		u := comm.UE(1)
		a := core.AllocF64(n)
		recvErr = u.RecvRobust(costs, pol, 0, a, 8*n)
		recv = u.Recovery()
	})
	if err := chip.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if recv.Nacks == 0 {
		t.Errorf("the receiver did not NACK a corrupted chunk: %+v", recv)
	}
	if !errors.Is(sendErr, ErrUnreachable) || recvErr == nil {
		t.Errorf("every chunk corrupted, yet send = %v, recv = %v", sendErr, recvErr)
	}
}
