package simtime

import (
	"errors"
	"runtime"
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
// shutdown/unwind invariant says no path — deadlock, panic, or a
// RunUntil limit — may strand a coroutine suspended inside a process.
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

func TestShutdownReapsGoroutinesRunUntil(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()
	for i := 0; i < 24; i++ {
		eng.Spawn("spinner", func(p *Proc) {
			for {
				p.Sleep(7)
			}
		})
	}
	if err := eng.RunUntil(1000); !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("want time limit, got %v", err)
	}
	waitGoroutines(t, base, "RunUntil shutdown")
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

// A timed-out waiter's deregistration must likewise clear its slot, and
// the compaction that bounds the hole-ridden list must keep every
// surviving waiter's recorded index coherent — a later Broadcast must
// wake exactly the survivors, in registration order.
func TestTimeoutDeregistrationClearsSlotAndCompacts(t *testing.T) {
	eng := NewEngine()
	var sig Signal
	var woke []int
	for i := 0; i < 64; i++ {
		eng.Spawn("w", func(p *Proc) {
			if p.ID()%4 != 3 {
				// 48 of 64 time out early: enough holes to cross the
				// holes > len/2 threshold and force a mid-run compaction
				// while the survivors are still registered.
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
