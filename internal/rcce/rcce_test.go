package rcce

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"scc/internal/metrics"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

func newChip() *scc.Chip { return scc.New(timing.Default()) }

func TestLayoutConstants(t *testing.T) {
	chip := newChip()
	c := NewComm(chip)
	if c.NumUEs() != 48 {
		t.Fatalf("NumUEs = %d", c.NumUEs())
	}
	// Flag lines precede the data region and are owned correctly.
	for owner := 0; owner < 48; owner += 13 {
		for writer := 0; writer < 48; writer += 11 {
			a := c.FlagAddr(owner, writer, FlagSent)
			if chip.MPBOwner(a) != owner {
				t.Fatalf("flag (%d,%d) lands in core %d's MPB", owner, writer, chip.MPBOwner(a))
			}
			if a >= c.DataBase(owner) {
				t.Fatalf("flag (%d,%d) overlaps data region", owner, writer)
			}
		}
	}
	// The chunk data region sits behind the NumUEs one-line flag regions
	// and the reserved gap — four lines, or as many as the view bitmap
	// needs — with the calibrated chunk size of every geometry (48 flag
	// lines + 4 gap lines of 32 B leave 8192-1664 = 6528 B on the default
	// chip). Every measured latency depends on these numbers. The view
	// slot opens the gap.
	for _, tc := range []struct {
		model               *timing.Model
		gapLines, dataBytes int
	}{
		{timing.Default(), 4, 6528},
		{timing.Topology(4, 4, 1), 4, 7552},
		{timing.Topology(8, 8, 2), 4, 12160},
		{timing.Topology(50, 50, 1), 10, 9792},
	} {
		m := tc.model
		chip := scc.New(m)
		c := NewComm(chip)
		if got := c.DataBytes(); got != tc.dataBytes {
			t.Errorf("%d cores: DataBytes = %d, want %d", m.NumCores(), got, tc.dataBytes)
		}
		for _, core := range []int{0, c.NumUEs() / 2, c.NumUEs() - 1} {
			slot := chip.MPBBase(core) + c.NumUEs()*m.CacheLineBytes
			if got := c.ViewSlot(core); got != slot {
				t.Errorf("%d cores: ViewSlot(%d) = %d, want %d", m.NumCores(), core, got, slot)
			}
			if want := slot + tc.gapLines*m.CacheLineBytes; c.DataBase(core) != want {
				t.Errorf("%d cores: DataBase(%d) = %d, want %d", m.NumCores(), core, c.DataBase(core), want)
			}
			if c.FlagAddr(core, c.NumUEs()-1, FlagTreeRelease) >= slot {
				t.Errorf("%d cores: the last writer's flag line runs into the view slot", m.NumCores())
			}
		}
		chip.Release()
	}
}

func TestBlockingSendRecvDeliversPayload(t *testing.T) {
	chip := newChip()
	comm := NewComm(chip)
	rng := rand.New(rand.NewSource(9))
	payload := make([]float64, 123)
	for i := range payload {
		payload[i] = rng.NormFloat64()
	}
	var got []float64
	chip.LaunchOne(7, func(core *scc.Core) {
		ue := comm.UE(7)
		a := core.AllocF64(len(payload))
		core.WriteF64s(a, payload)
		ue.Send(31, a, 8*len(payload))
	})
	chip.LaunchOne(31, func(core *scc.Core) {
		ue := comm.UE(31)
		a := core.AllocF64(len(payload))
		ue.Recv(7, a, 8*len(payload))
		got = make([]float64, len(payload))
		core.ReadF64s(a, got)
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

func TestBlockingSendChunksLargeMessages(t *testing.T) {
	// 3000 doubles = 24000 bytes >> 6528-byte chunk region: must arrive
	// intact through multiple handshakes.
	chip := newChip()
	comm := NewComm(chip)
	n := 3000
	payload := make([]float64, n)
	for i := range payload {
		payload[i] = float64(i) * 1.5
	}
	var got []float64
	chip.LaunchOne(0, func(core *scc.Core) {
		ue := comm.UE(0)
		a := core.AllocF64(n)
		core.WriteF64s(a, payload)
		ue.Send(1, a, 8*n)
	})
	chip.LaunchOne(1, func(core *scc.Core) {
		ue := comm.UE(1)
		a := core.AllocF64(n)
		ue.Recv(0, a, 8*n)
		got = make([]float64, n)
		core.ReadF64s(a, got)
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("chunked payload corrupted at %d: %v != %v", i, got[i], payload[i])
		}
	}
}

func TestBlockingSendWaitsForReceiver(t *testing.T) {
	// Sender must not return before the receiver picked the data up
	// (Fig. 3: "the sender waits until the receiver has picked up the
	// data").
	chip := newChip()
	comm := NewComm(chip)
	delay := simtime.Microseconds(300)
	var sendDone simtime.Time
	chip.LaunchOne(0, func(core *scc.Core) {
		ue := comm.UE(0)
		a := core.AllocF64(4)
		ue.Send(1, a, 8*4)
		sendDone = core.Now()
	})
	chip.LaunchOne(1, func(core *scc.Core) {
		ue := comm.UE(1)
		core.Compute(delay) // receiver is late
		a := core.AllocF64(4)
		ue.Recv(0, a, 8*4)
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone < delay {
		t.Fatalf("send returned at %v, before the receiver even posted (%v)", sendDone, delay)
	}
}

func TestBarrierSynchronizesAllCores(t *testing.T) {
	chip := newChip()
	comm := NewComm(chip)
	arrive := make([]simtime.Time, 48)
	depart := make([]simtime.Time, 48)
	chip.Launch(func(core *scc.Core) {
		ue := comm.UE(core.ID)
		// Stagger arrivals.
		core.Compute(simtime.Microseconds(int64(core.ID * 10)))
		arrive[core.ID] = core.Now()
		ue.Barrier()
		depart[core.ID] = core.Now()
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	var maxArrive simtime.Time
	for _, a := range arrive {
		if a > maxArrive {
			maxArrive = a
		}
	}
	for id, d := range depart {
		if d < maxArrive {
			t.Fatalf("core %d left the barrier at %v before the last arrival %v", id, d, maxArrive)
		}
	}
}

func TestBarrierIsReusable(t *testing.T) {
	chip := newChip()
	comm := NewComm(chip)
	rounds := 0
	chip.Launch(func(core *scc.Core) {
		ue := comm.UE(core.ID)
		for r := 0; r < 5; r++ {
			ue.Barrier()
		}
		if core.ID == 0 {
			rounds = 5
		}
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds != 5 {
		t.Fatal("barrier rounds did not complete")
	}
}

func TestNonBlockingRingNoOddEvenNeeded(t *testing.T) {
	// Every core posts isend+irecv in the same (send-first) order around
	// a ring. With blocking primitives this deadlocks; with non-blocking
	// ones it must complete (Sec. IV-A).
	chip := newChip()
	comm := NewComm(chip)
	costs := NBCosts{Post: 100, Wait: 100, Progress: 25}
	n := 50
	ok := make([]bool, 48)
	chip.Launch(func(core *scc.Core) {
		ue := comm.UE(core.ID)
		p := ue.NumUEs()
		right := (core.ID + 1) % p
		left := (core.ID + p - 1) % p
		src := core.AllocF64(n)
		dst := core.AllocF64(n)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(core.ID)*1000 + float64(i)
		}
		core.WriteF64s(src, v)
		s := ue.PostSend(costs, right, src, 8*n)
		r := ue.PostRecv(costs, left, dst, 8*n)
		ue.WaitAll(costs, s, r)
		got := make([]float64, n)
		core.ReadF64s(dst, got)
		good := true
		for i := range got {
			if got[i] != float64(left)*1000+float64(i) {
				good = false
			}
		}
		ok[core.ID] = good
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for id, good := range ok {
		if !good {
			t.Fatalf("core %d received wrong ring payload", id)
		}
	}
}

func TestNonBlockingChunkedMessage(t *testing.T) {
	chip := newChip()
	comm := NewComm(chip)
	costs := NBCosts{Post: 100, Wait: 100, Progress: 25}
	n := 2000 // 16000 bytes: 3 chunks
	var got []float64
	chip.LaunchOne(5, func(core *scc.Core) {
		ue := comm.UE(5)
		a := core.AllocF64(n)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i) * 0.25
		}
		core.WriteF64s(a, v)
		s := ue.PostSend(costs, 6, a, 8*n)
		ue.WaitAll(costs, s)
	})
	chip.LaunchOne(6, func(core *scc.Core) {
		ue := comm.UE(6)
		a := core.AllocF64(n)
		r := ue.PostRecv(costs, 5, a, 8*n)
		ue.WaitAll(costs, r)
		got = make([]float64, n)
		core.ReadF64s(a, got)
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != float64(i)*0.25 {
			t.Fatalf("chunked NB payload corrupted at %d", i)
		}
	}
}

func TestSecondPostSendDrainsFirst(t *testing.T) {
	chip := newChip()
	comm := NewComm(chip)
	costs := NBCosts{Post: 100, Wait: 100, Progress: 25}
	var got1, got2 []float64
	chip.LaunchOne(0, func(core *scc.Core) {
		ue := comm.UE(0)
		a := core.AllocF64(8)
		b := core.AllocF64(8)
		core.WriteF64s(a, []float64{1, 1, 1, 1, 1, 1, 1, 1})
		core.WriteF64s(b, []float64{2, 2, 2, 2, 2, 2, 2, 2})
		s1 := ue.PostSend(costs, 1, a, 64)
		s2 := ue.PostSend(costs, 1, b, 64) // must drain s1 first
		ue.WaitAll(costs, s1, s2)
	})
	chip.LaunchOne(1, func(core *scc.Core) {
		ue := comm.UE(1)
		a := core.AllocF64(8)
		b := core.AllocF64(8)
		r1 := ue.PostRecv(costs, 0, a, 64)
		ue.WaitAll(costs, r1)
		r2 := ue.PostRecv(costs, 0, b, 64)
		ue.WaitAll(costs, r2)
		got1 = make([]float64, 8)
		got2 = make([]float64, 8)
		core.ReadF64s(a, got1)
		core.ReadF64s(b, got2)
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got1[i] != 1 || got2[i] != 2 {
			t.Fatalf("ordered sends arrived wrong: %v / %v", got1, got2)
		}
	}
}

// TestSecondPostDrainsBusySlot: each UE has one send slot and one
// receive slot. A second post in either direction while the first
// request is still in flight completes the first, delivers both
// payloads in order and counts one slot drain on the posting core.
func TestSecondPostDrainsBusySlot(t *testing.T) {
	for _, kind := range []ReqKind{ReqSend, ReqRecv} {
		chip := newChip()
		reg := metrics.New(chip.NumCores())
		chip.SetMetrics(reg)
		comm := NewComm(chip)
		costs := NBCosts{Post: 100, Wait: 100, Progress: 25}
		var got1, got2 []float64
		chip.LaunchOne(0, func(core *scc.Core) {
			ue := comm.UE(0)
			a := core.AllocF64(8)
			b := core.AllocF64(8)
			core.WriteF64s(a, []float64{1, 1, 1, 1, 1, 1, 1, 1})
			core.WriteF64s(b, []float64{2, 2, 2, 2, 2, 2, 2, 2})
			if kind == ReqSend {
				ue.PostSend(costs, 1, a, 64)
				ue.WaitAll(costs, ue.PostSend(costs, 1, b, 64))
				return
			}
			core.OverheadCycles(100_000) // the receiver posts both first
			ue.WaitAll(costs, ue.PostSend(costs, 1, a, 64))
			ue.WaitAll(costs, ue.PostSend(costs, 1, b, 64))
		})
		chip.LaunchOne(1, func(core *scc.Core) {
			ue := comm.UE(1)
			a := core.AllocF64(8)
			b := core.AllocF64(8)
			if kind == ReqSend {
				core.OverheadCycles(100_000) // the sender posts both first
				ue.WaitAll(costs, ue.PostRecv(costs, 0, a, 64))
				ue.WaitAll(costs, ue.PostRecv(costs, 0, b, 64))
			} else {
				ue.PostRecv(costs, 0, a, 64)
				ue.WaitAll(costs, ue.PostRecv(costs, 0, b, 64))
			}
			got1 = make([]float64, 8)
			got2 = make([]float64, 8)
			core.ReadF64s(a, got1)
			core.ReadF64s(b, got2)
		})
		if err := chip.Run(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for i := 0; i < 8; i++ {
			if got1[i] != 1 || got2[i] != 2 {
				t.Fatalf("%v: payloads arrived wrong: %v / %v", kind, got1, got2)
			}
		}
		poster := 0
		if kind == ReqRecv {
			poster = 1
		}
		snap := reg.Snapshot()
		if d := snap.Cores[poster].Counters["slot-drains"]; d != 1 {
			t.Errorf("%v: core %d slot-drains = %d, want 1", kind, poster, d)
		}
		if d := snap.Cores[1-poster].Counters["slot-drains"]; d != 0 {
			t.Errorf("%v: core %d slot-drains = %d, want 0", kind, 1-poster, d)
		}
	}
}

func TestPartialLineMessageCostsMore(t *testing.T) {
	// A 5-double (40 B) message needs 2 lines and the extra padding
	// call; an 8-double (64 B) message needs 2 lines and no extra call,
	// so the 5-double send/recv pair must be at least as expensive.
	lat := func(n int) simtime.Time {
		chip := newChip()
		comm := NewComm(chip)
		chip.LaunchOne(0, func(core *scc.Core) {
			ue := comm.UE(0)
			a := core.AllocF64(n)
			ue.Send(1, a, 8*n)
		})
		chip.LaunchOne(1, func(core *scc.Core) {
			ue := comm.UE(1)
			a := core.AllocF64(n)
			ue.Recv(0, a, 8*n)
		})
		if err := chip.Run(); err != nil {
			t.Fatal(err)
		}
		return chip.Now()
	}
	l5, l8 := lat(5), lat(8)
	if l5 <= l8 {
		t.Fatalf("partial-line message (%v) should cost more than full-line (%v)", l5, l8)
	}
}

// TestWaitAllTakesItsTwoSlots: a wait keeps its requests by slot, so
// WaitAll refuses a third request and another UE's, while a slot listed
// twice (as a drained post and its successor are) and a nil request are
// still taken.
func TestWaitAllTakesItsTwoSlots(t *testing.T) {
	costs := NBCosts{Post: 100, Wait: 100, Progress: 25}
	for _, tc := range []struct {
		name  string
		wait  func(ue, other *UE, s *Request) error
		panic bool
	}{
		{"a third request", func(ue, _ *UE, s *Request) error { return ue.WaitAll(costs, s, s, s) }, true},
		{"another UE's", func(ue, other *UE, _ *Request) error { return ue.WaitAll(costs, &other.slots[ReqSend]) }, true},
		{"a slot twice", func(ue, _ *UE, s *Request) error { return ue.WaitAll(costs, s, s, nil) }, false},
	} {
		chip := newChip()
		comm := NewComm(chip)
		other := comm.UE(2)
		chip.LaunchOne(0, func(c *scc.Core) {
			ue := comm.UE(0)
			s := ue.PostSend(costs, 1, c.AllocF64(1), 8)
			_ = tc.wait(ue, other, s)
		})
		chip.LaunchOne(1, func(c *scc.Core) { comm.UE(1).Recv(0, c.AllocF64(1), 8) })
		err := chip.Run()
		if got := err != nil && strings.Contains(err.Error(), "WaitAll takes at most two requests, both its UE's"); got != tc.panic {
			t.Errorf("%s: Run = %v, want the panic: %v", tc.name, err, tc.panic)
		}
	}
}

// TestSendToSelfPanics: every driver of the chunk state machine refuses
// a transfer whose peer is the UE itself.
func TestSendToSelfPanics(t *testing.T) {
	costs := NBCosts{Post: 100, Wait: 100, Progress: 25}
	pol := DefaultPolicy()
	for _, tc := range []struct {
		name string
		call func(ue *UE, a scc.Addr) error
	}{
		{"Send", func(ue *UE, a scc.Addr) error { ue.Send(0, a, 8); return nil }},
		{"Recv", func(ue *UE, a scc.Addr) error { ue.Recv(0, a, 8); return nil }},
		{"PostSend", func(ue *UE, a scc.Addr) error { ue.PostSend(costs, 0, a, 8); return nil }},
		{"PostRecv", func(ue *UE, a scc.Addr) error { ue.PostRecv(costs, 0, a, 8); return nil }},
		{"SendRobust", func(ue *UE, a scc.Addr) error { return ue.SendRobust(costs, pol, 0, a, 8) }},
		{"RecvRobust", func(ue *UE, a scc.Addr) error { return ue.RecvRobust(costs, pol, 0, a, 8) }},
		{"ExchangeRobust", func(ue *UE, a scc.Addr) error { return ue.ExchangeRobust(costs, pol, 1, a, 8, 0, a, 8) }},
	} {
		chip := newChip()
		comm := NewComm(chip)
		chip.LaunchOne(0, func(core *scc.Core) {
			_ = tc.call(comm.UE(0), core.AllocF64(1))
		})
		if err := chip.Run(); err == nil || !strings.Contains(err.Error(), "to itself") {
			t.Errorf("%s to self: Run = %v, want the self-transfer panic", tc.name, err)
		}
	}
}

// TestUEFitsItsSizeClass: every core holds a UE, with both transfer
// slots inline; 512 bytes is the allocation size class it fits.
func TestUEFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(UE{}); n > 512 {
		t.Fatalf("UE is %d bytes, want at most 512", n)
	}
}

// TestCoreFitsItsBudget: a chip allocates its Cores as one slab, and a
// slab of pointerful objects carries an 8-byte allocation header. At 504
// bytes a 48-core slab plus its header fits the 24,576-byte size class;
// at 512 it spills into the next, 11 % larger (+1.6 % of faults_48's
// alloc_mb, which builds hundreds of 48-core chips). The step-machine
// state of a core's accesses and waits is packed to stay inside it.
func TestCoreFitsItsBudget(t *testing.T) {
	if n := unsafe.Sizeof(scc.Core{}); n > 504 {
		t.Fatalf("scc.Core is %d bytes, want at most 504", n)
	}
}
