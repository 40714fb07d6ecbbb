package simtime

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// A signal raised before the deadline must win the race, and the stale
// timer event must not perturb the waiter's subsequent virtual time.
func TestWaitOnTimeoutSignalWins(t *testing.T) {
	eng := NewEngine()
	var sig Signal
	var got bool
	var wake Time
	eng.Spawn("waiter", func(p *Proc) {
		got = p.WaitOnTimeout(&sig, 100, Site("flag"))
		wake = p.Now()
		p.Sleep(500) // cross the stale timer's deadline
	})
	eng.Spawn("signaler", func(p *Proc) {
		p.Sleep(30)
		sig.Broadcast(eng)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !got {
		t.Fatal("expected signal to win, got timeout")
	}
	if wake != 30 {
		t.Fatalf("woke at %v, want 30", wake)
	}
	if sig.Waiters() != 0 {
		t.Fatalf("signal still has %d waiters", sig.Waiters())
	}
}

// With nobody signaling, the timer must fire at exactly now+d and the
// waiter must be deregistered from the signal.
func TestWaitOnTimeoutExpires(t *testing.T) {
	eng := NewEngine()
	var sig Signal
	var got bool
	var wake Time
	eng.Spawn("waiter", func(p *Proc) {
		got = p.WaitOnTimeout(&sig, 250, Site("flag"))
		wake = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got {
		t.Fatal("expected timeout, got signal")
	}
	if wake != 250 {
		t.Fatalf("woke at %v, want 250", wake)
	}
	if sig.Waiters() != 0 {
		t.Fatalf("timed-out waiter still registered (%d waiters)", sig.Waiters())
	}
}

// A process may loop timeout-waits; each pending timer from a lost race
// must be skipped, never resuming the process early.
func TestWaitOnTimeoutRepeated(t *testing.T) {
	eng := NewEngine()
	var sig Signal
	wins := 0
	eng.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 3; i++ {
			if p.WaitOnTimeout(&sig, 10, Site("flag")) {
				wins++
			}
		}
	})
	eng.Spawn("signaler", func(p *Proc) {
		p.Sleep(5)
		sig.Broadcast(eng) // wins round 1; rounds 2 and 3 time out
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wins != 1 {
		t.Fatalf("wins = %d, want 1", wins)
	}
	if eng.Now() != 25 {
		t.Fatalf("finished at %v, want 25 (5 + 10 + 10)", eng.Now())
	}
}

// Deadlock reports include the last note set by each stuck process.
func TestDeadlockReportIncludesNote(t *testing.T) {
	eng := NewEngine()
	var sig Signal
	eng.Spawn("stuck", func(p *Proc) {
		p.SetNote(NoteString("sent chunk 3"))
		p.WaitOn(&sig, Site("ack"))
	})
	err := eng.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want deadlock, got %v", err)
	}
	if !strings.Contains(err.Error(), "last step: sent chunk 3") {
		t.Fatalf("deadlock report missing note: %v", err)
	}
	if !strings.Contains(err.Error(), "waiting: ack") {
		t.Fatalf("deadlock report missing blocking point: %v", err)
	}
}

// A Broadcast at exactly the deadline tick: whichever of the signaler's
// event and the timer pops first decides. The waiter resumes once, at T,
// in both orders, and on its deadline's turn: before an observer whose
// event at T was queued after the deadline.
func TestWaitOnTimeoutSignalAtDeadlineTick(t *testing.T) {
	const T = 10
	for _, tc := range []struct {
		name        string
		signalFirst bool
	}{{"signaler-before-timer", true}, {"timer-first", false}} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine()
			var sig Signal
			var got bool
			var wake Time
			waitersAtSignal := -1
			var waiterFirst bool
			waiter := func(p *Proc) {
				got = p.WaitOnTimeout(&sig, T, Site("flag"))
				wake = p.Now()
				p.Sleep(5) // a second wake-up at T would resume this early
			}
			signaler := func(p *Proc) {
				p.Sleep(T)
				waitersAtSignal = sig.Waiters()
				sig.Broadcast(eng)
			}
			// Spawn order sets the seq order of the events at T.
			if tc.signalFirst {
				eng.Spawn("signaler", signaler)
				eng.Spawn("waiter", waiter)
			} else {
				eng.Spawn("waiter", waiter)
				eng.Spawn("signaler", signaler)
			}
			eng.Spawn("observer", func(p *Proc) {
				p.Sleep(T)
				waiterFirst = wake == T
			})
			if err := eng.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			wantWaiters := 0
			if tc.signalFirst {
				wantWaiters = 1
			}
			if got != tc.signalFirst || wake != T || waitersAtSignal != wantWaiters || !waiterFirst {
				t.Fatalf("WaitOnTimeout = %v at %v (before the observer: %v), Broadcast found %d waiters; want %v at %v (true), %d",
					got, wake, waiterFirst, waitersAtSignal, tc.signalFirst, Time(T), wantWaiters)
			}
			if eng.Now() != T+5 || eng.queue.Len() != 0 || sig.Waiters() != 0 {
				t.Fatalf("ended at %v with %d events queued, %d waiters; want %v, 0, 0",
					eng.Now(), eng.queue.Len(), sig.Waiters(), Time(T+5))
			}
		})
	}
}

// TestOnePendingWakeupPerProcess is a seeded signal/timeout torture whose
// deadlines far exceed the signal period, so nearly every deadline loses
// to a signal. After every resume the queue holds no more events than
// there are other unfinished processes: each has at most one wake-up and
// the running one has none. A stale-deadline queue grows to hundreds here.
func TestOnePendingWakeupPerProcess(t *testing.T) {
	const procs, rounds = 40, 300
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine()
		sigs := make([]Signal, 8)
		maxDepth, wins, timeouts := 0, 0, 0
		check := func(p *Proc) {
			if n := eng.queue.Len(); n > maxDepth {
				maxDepth = n
			}
			if eng.queue.Len() > eng.live-1 {
				t.Fatalf("seed %d, %s at %v: %d events queued for %d other live processes",
					seed, p.Name(), p.Now(), eng.queue.Len(), eng.live-1)
			}
		}
		for i := 0; i < procs; i++ {
			d := Duration(rng.Intn(5_000) + 1_000)
			s := &sigs[rng.Intn(len(sigs))]
			eng.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for r := 0; r < rounds; r++ {
					if p.WaitOnTimeout(s, d, Site("torture")) {
						wins++
					} else {
						timeouts++
					}
					check(p)
				}
			})
		}
		eng.Spawn("signaler", func(p *Proc) {
			for eng.live > 1 {
				gap := Duration(rng.Intn(20) + 1)
				if rng.Intn(100) == 0 {
					gap = 8_000 // a lull: every pending deadline fires
				}
				p.Sleep(gap)
				check(p)
				sigs[rng.Intn(len(sigs))].Broadcast(eng)
				if rng.Intn(3) == 0 {
					sigs[rng.Intn(len(sigs))].Broadcast(eng)
				}
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if eng.queue.Len() != 0 || wins == 0 || timeouts == 0 {
			t.Fatalf("seed %d: %d events left, %d signal wins, %d timeouts", seed, eng.queue.Len(), wins, timeouts)
		}
		t.Logf("seed %d: max depth %d, %d signal wins, %d timeouts", seed, maxDepth, wins, timeouts)
	}
}
