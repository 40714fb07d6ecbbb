package simtime

import (
	"errors"
	"runtime"
	"slices"
	"testing"
)

// waitGoroutines drains the worker pool and checks that the live
// goroutine count is back at the baseline. No polling: a finished
// process's worker is parked by the dispatcher before Run returns, and
// retiring a parked coroutine is synchronous, so the count is exact the
// moment DrainWorkerPool returns. Draining first separates the two leak
// classes: a parked pool worker is expected state, a goroutine that
// survives the drain is a real leak.
func waitGoroutines(t *testing.T, base int, context string) {
	t.Helper()
	DrainWorkerPool()
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%s: %d goroutines leaked past baseline %d\n%s", context, n-base, base, buf)
	}
}

// Every abnormal exit from Run must reap all process coroutines: the
// shutdown/unwind invariant says no path — deadlock or panic — may
// strand a coroutine suspended inside a process.
func TestShutdownReapsGoroutinesDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()
	var sig Signal
	for i := 0; i < 24; i++ {
		eng.Spawn("stuck", func(p *Proc) {
			p.Sleep(Time(p.ID()))
			p.WaitOn(&sig, Site("never"))
		})
	}
	if err := eng.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want deadlock, got %v", err)
	}
	waitGoroutines(t, base, "deadlock shutdown")
}

func TestShutdownReapsGoroutinesPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()
	var sig Signal
	for i := 0; i < 24; i++ {
		eng.Spawn("waiter", func(p *Proc) {
			p.WaitOn(&sig, Site("held"))
		})
	}
	eng.Spawn("bomb", func(p *Proc) {
		p.Sleep(10)
		panic("boom")
	})
	if err := eng.Run(); err == nil {
		t.Fatal("want panic error, got nil")
	}
	waitGoroutines(t, base, "panic shutdown")
}

// A clean completion must also leave nothing behind — the common case,
// but cheap to pin alongside the abnormal paths.
func TestCleanRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()
	var sig Signal
	for i := 0; i < 24; i++ {
		eng.Spawn("worker", func(p *Proc) {
			if p.ID()%2 == 0 {
				p.WaitOnTimeout(&sig, 50, Site("wait"))
			} else {
				p.Sleep(25)
				sig.Broadcast(p.Engine())
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "clean run")
}

// Broadcast must not retain *Proc pointers in the waiter slice's backing
// array: the slice is pooled across rounds (truncated, not freed), and a
// stale pointer would keep a finished process — and everything its
// closure captured — reachable for the life of the Signal.
func TestBroadcastClearsWaiterBackingArray(t *testing.T) {
	eng := NewEngine()
	var sig Signal
	for i := 0; i < 16; i++ {
		eng.Spawn("waiter", func(p *Proc) {
			p.WaitOn(&sig, Site("pool"))
		})
	}
	eng.Spawn("releaser", func(p *Proc) {
		p.Sleep(10)
		sig.Broadcast(p.Engine())
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sig.Waiters() != 0 {
		t.Fatalf("signal still has %d waiters", sig.Waiters())
	}
	full := sig.waiters[:cap(sig.waiters)]
	for i, w := range full {
		if w != nil {
			t.Fatalf("backing array slot %d still holds %q after Broadcast", i, w.Name())
		}
	}
}

// A timed-out waiter is spliced out of the waiter list (Proc.disarm):
// the tail slot it vacates must be cleared, and the survivors must keep
// their order, so a later Broadcast wakes exactly them, in registration
// order.
func TestTimeoutDeregistrationClearsSlotAndCompacts(t *testing.T) {
	eng := NewEngine()
	var sig Signal
	var woke []int
	for i := 0; i < 64; i++ {
		eng.Spawn("w", func(p *Proc) {
			if p.ID()%4 != 3 {
				// 48 of 64 time out early and splice themselves out
				// from between the survivors, still registered.
				if p.WaitOnTimeout(&sig, 10, Site("short")) {
					t.Errorf("waiter %d: signal beat a 10-tick timeout fired at t=100", p.ID())
				}
			} else {
				if p.WaitOnTimeout(&sig, 1000, Site("long")) {
					woke = append(woke, p.ID())
				}
			}
		})
	}
	eng.Spawn("releaser", func(p *Proc) {
		p.Sleep(100)
		sig.Broadcast(p.Engine())
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 16 {
		t.Fatalf("%d survivors woke, want 16", len(woke))
	}
	for i, id := range woke {
		if id != 4*i+3 {
			t.Fatalf("wake order broken at %d: got id %d, want %d", i, id, 4*i+3)
		}
	}
	full := sig.waiters[:cap(sig.waiters)]
	for i, w := range full {
		if w != nil {
			t.Fatalf("backing array slot %d still holds %q", i, w.Name())
		}
	}
}

// A process that times out on one signal over and over leaves it with
// no waiter after each timeout: the splice empties the list instead of
// leaving holes that grow it until a compaction.
func TestRepeatedTimeoutLeavesNoWaiter(t *testing.T) {
	eng := NewEngine()
	var sig Signal
	var left []int
	eng.Spawn("w", func(p *Proc) {
		for range 40 {
			if p.WaitOnTimeout(&sig, 3, Site("alone")) {
				t.Error("nobody signals, yet the wait did not time out")
			}
			left = append(left, len(sig.waiters))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if i := slices.IndexFunc(left, func(n int) bool { return n != 0 }); i >= 0 {
		t.Fatalf("timeout %d left %d entries on the signal, want 0", i, left[i])
	}
}

// A failed Run drops every wake-up of the processes it killed, so the
// next Run pops only its own: a panic while another process holds a
// pending deadline. The killed waiter stays registered on its signal; a
// later Broadcast must skip it.
func TestFailedRunLeavesQueueEmpty(t *testing.T) {
	t.Run("panic", func(t *testing.T) {
		const failAt = 10 // virtual time when the failed Run returns
		eng := NewEngine()
		var sig Signal
		eng.Spawn("waiter", func(p *Proc) {
			p.WaitOnTimeout(&sig, 1_000, Site("held"))
			t.Error("killed waiter resumed")
		})
		eng.Spawn("failer", func(p *Proc) {
			p.Sleep(failAt)
			panic("boom")
		})
		if err := eng.Run(); err == nil {
			t.Fatal("want the first Run to fail")
		}
		if eng.queue.Len() != 0 || eng.Now() != failAt {
			t.Fatalf("after the failed Run: %d events queued at %v, want 0 at %v",
				eng.queue.Len(), eng.Now(), failAt)
		}
		var woke [2]Time
		eng.Spawn("sleeper", func(p *Proc) {
			p.Sleep(5)
			woke[0] = p.Now()
			p.Sleep(2_000) // across the killed waiter's deadline
			woke[1] = p.Now()
		})
		eng.Spawn("signaler", func(p *Proc) {
			p.Sleep(7)
			sig.Broadcast(eng)
		})
		if err := eng.Run(); err != nil {
			t.Fatalf("second Run: %v", err)
		}
		if want := [2]Time{failAt + 5, failAt + 2_005}; woke != want || eng.queue.Len() != 0 {
			t.Fatalf("second Run woke the sleeper at %v with %d events left, want %v and 0",
				woke, eng.queue.Len(), want)
		}
	})
}
