package rcce_test

import (
	"fmt"
	"runtime"
	"testing"

	"scc/internal/rcce"
	"scc/internal/rckmpi"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// A blocking transfer runs each chunk's wait, consume, copy and
// acknowledgement as model steps, on whichever stack pops the wake-up.
// These tests fault a transfer in the middle of a message and hold the
// outcome to what the loop in process code produced: the ticks at which
// the cores that do not depend on the victim finish, how much of the
// message the victim took in, the error text, and no goroutine left
// suspended. Every expectation was recorded before the chunk loop moved
// into the engine.

// chainFault kills core victim at tick dieAt, or loses writer 0's
// dropNth write of the sent flag it sets in core 1's MPB. diedIn is
// what the victim was waiting on when it died (waiting names it).
type chainFault struct {
	victim  int
	dieAt   simtime.Time
	sentOff int
	dropNth int
	sets    int
	waiting func() string
	diedIn  string
}

func (h *chainFault) StallCore(int, simtime.Time) simtime.Duration { return 0 }
func (h *chainFault) CoreDead(id int, now simtime.Time) bool {
	dead := h.dieAt > 0 && id == h.victim && now >= h.dieAt
	if dead && h.diedIn == "" {
		h.diedIn = h.waiting()
	}
	return dead
}
func (h *chainFault) DropFlagWrite(writer, off int, _ simtime.Time) bool {
	if writer != 0 || off != h.sentOff || h.dropNth == 0 {
		return false
	}
	h.sets++
	return h.sets == h.dropNth
}
func (h *chainFault) FilterMPBWrite(int, int, []byte, simtime.Time) bool { return false }

// chainRun moves n bytes from core 0 to core 1 and, untouched by the
// fault, from core 2 to core 3, through RCKMPI's channel, blocking RCCE
// or (via "robust") the hardened protocol. It renders each core's exit
// tick ("-" for none), the bytes of core 1's buffer that hold the
// payload, the run's error, and each hardened transfer's error.
func chainRun(t *testing.T, via string, n int, h *chainFault) string {
	t.Helper()
	chip := scc.New(timing.Default())
	defer chip.Release()
	comm := rcce.NewComm(chip)
	h.sentOff = comm.FlagAddr(1, 0, rcce.FlagSent)
	h.waiting = chip.Cores[h.victim].Waiting
	chip.Fault = h
	var exit [4]simtime.Time
	var dst [4]scc.Addr
	var errs [4]error
	pol := rcce.DefaultPolicy()
	costs := rcce.NBCosts{Post: 100, Wait: 100, Progress: 25}
	for id := 0; id < 4; id++ {
		chip.LaunchOne(id, func(c *scc.Core) {
			ue := comm.UE(id)
			buf := c.Alloc(n)
			dst[id] = buf
			peer := id ^ 1
			if id%2 == 0 {
				for i, b := 0, c.PrivBytes(buf, n); i < n; i++ {
					b[i] = byte(1 + i%251)
				}
			}
			switch {
			case via == "rckmpi" && id%2 == 0:
				rckmpi.New(ue).Send(peer, buf, n)
			case via == "rckmpi":
				rckmpi.New(ue).Recv(peer, buf, n)
			case via == "robust" && id%2 == 0:
				errs[id] = ue.SendRobust(costs, pol, peer, buf, n)
			case via == "robust":
				errs[id] = ue.RecvRobust(costs, pol, peer, buf, n)
			case id%2 == 0:
				ue.Send(peer, buf, n)
			default:
				ue.Recv(peer, buf, n)
			}
			exit[id] = c.Now()
		})
	}
	err := chip.Run()
	got := 0
	for b := chip.Cores[1].PrivBytes(dst[1], n); got < n && b[got] == byte(1+got%251); got++ {
	}
	s := ""
	for id, at := range exit {
		if at == 0 {
			s += fmt.Sprintf("c%d=- ", id)
		} else {
			s += fmt.Sprintf("c%d=%d ", id, at)
		}
	}
	s = fmt.Sprintf("%sgot=%d err=%v", s, got, err)
	for id, err := range errs {
		if err != nil {
			s += fmt.Sprintf(" c%d: %v", id, err)
		}
	}
	return s
}

// leakCheck fails t if a run left goroutines past base (the worker pool
// drained first, as in the root package's leak test).
func leakCheck(t *testing.T, base int) {
	t.Helper()
	simtime.DrainWorkerPool()
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("the run leaked %d goroutines past baseline %d\n%s", n-base, base, buf)
	}
}

// TestDeathInsideATransferChain kills the receiver mid-message: at its
// sixth 64-B window of a 4,416-B RCKMPI Recv, and in the second chunk of
// a three-chunk (13,057-B) blocking RCCE Recv. The victim dies on its
// own stack; the sender deadlocks on the ready flag and the run fails
// with ErrCoreDead; the untouched pair finishes at its fault-free ticks.
func TestDeathInsideATransferChain(t *testing.T) {
	for _, tc := range []struct {
		via   string
		n     int
		dieAt simtime.Time
		want  string
	}{
		{"rckmpi", 4416, 150_000,
			"c0=- c1=- c2=827262 c3=826960 got=320 err=scc: core died mid-run (cores [1]): simtime: deadlock at t=517.04us: 1 stuck processes: core00 (waiting: core00 flag@33==1)"},
		{"blocking", 13057, 500_000,
			"c0=- c1=- c2=735034 c3=734732 got=6528 err=scc: core died mid-run (cores [1]): simtime: deadlock at t=459.40us: 1 stuck processes: core00 (waiting: core00 flag@33==1; last step: sent 6528/13057 B to 01)"},
	} {
		simtime.DrainWorkerPool()
		base := runtime.NumGoroutine()
		if got := chainRun(t, tc.via, tc.n, &chainFault{victim: 1, dieAt: tc.dieAt}); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.via, got, tc.want)
		}
		leakCheck(t, base)
	}
}

// TestDroppedSentFlagInsideATransferChain loses the sender's second
// sent flag of a message. Both cores of the pair deadlock mid-message,
// and the report names each one's flag wait: offset and value.
func TestDroppedSentFlagInsideATransferChain(t *testing.T) {
	for _, tc := range []struct {
		via  string
		n    int
		want string
	}{
		{"rckmpi", 4416,
			"c0=- c1=- c2=827262 c3=826960 got=64 err=simtime: deadlock at t=517.04us: 2 stuck processes: core00 (waiting: core00 flag@33==1), core01 (waiting: core01 flag@8192==1)"},
		{"blocking", 13057,
			"c0=- c1=- c2=735034 c3=734732 got=6528 err=simtime: deadlock at t=459.40us: 2 stuck processes: core00 (waiting: core00 flag@33==1; last step: sent 6528/13057 B to 01), core01 (waiting: core01 flag@8192==1; last step: recvd 6528/13057 B from 00)"},
	} {
		simtime.DrainWorkerPool()
		base := runtime.NumGoroutine()
		if got := chainRun(t, tc.via, tc.n, &chainFault{dropNth: 2}); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.via, got, tc.want)
		}
		leakCheck(t, base)
	}
}

// TestDeathInsideAHardenedWait kills a core while its hardened WaitAll
// is parked on its flag during a three-chunk (13,057-B) transfer: the
// receiver waiting for the second chunk, or the sender waiting for the
// second chunk's acknowledgement. The victim dies on its own stack at
// the probe its wake-up runs; its peer runs its retry budget out and
// returns ErrUnreachable; the untouched pair finishes at its fault-free
// ticks. Recorded while WaitAll's rounds ran as process code.
func TestDeathInsideAHardenedWait(t *testing.T) {
	for _, tc := range []struct {
		victim int
		dieAt  simtime.Time
		want   string
	}{
		{1, 500_000, "core01 any-flag (1 flags, first@8192): c0=246668174 c1=- c2=779320 c3=779169 got=6528 err=<nil>" +
			" c0: rcce: peer unreachable, retries exhausted: send peer 01 at byte 6528/13057 (8 retries)"},
		{0, 550_000, "core00 any-flag (1 flags, first@33): c0=- c1=246045990 c2=779320 c3=779169 got=13056 err=<nil>" +
			" c1: rcce: peer unreachable, retries exhausted: recv peer 00 at byte 13056/13057 (8 retries)"},
	} {
		simtime.DrainWorkerPool()
		base := runtime.NumGoroutine()
		h := &chainFault{victim: tc.victim, dieAt: tc.dieAt}
		if got := chainRun(t, "robust", 13057, h); h.diedIn+": "+got != tc.want {
			t.Errorf("victim %d:\n got %s: %s\nwant %s", tc.victim, h.diedIn, got, tc.want)
		}
		leakCheck(t, base)
	}
}

// TestRequestStringOutsideAWait: a request names its core's flag wait,
// the text a deadlock report prints for the parked waiter, and fmt
// prints it anywhere; outside a flag wait its core has none to name.
func TestRequestStringOutsideAWait(t *testing.T) {
	chip := scc.New(timing.Default())
	defer chip.Release()
	comm := rcce.NewComm(chip)
	costs := rcce.NBCosts{Post: 100, Wait: 100, Progress: 25}
	var got string
	chip.LaunchOne(0, func(c *scc.Core) {
		ue := comm.UE(0)
		r := ue.PostSend(costs, 1, c.Alloc(8), 8)
		got = fmt.Sprint(r)
		ue.WaitAll(costs, r)
	})
	chip.LaunchOne(1, func(c *scc.Core) { comm.UE(1).Recv(0, c.Alloc(8), 8) })
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "core00 no flag wait"; got != want {
		t.Errorf("a posted request prints %q, want %q", got, want)
	}
}
