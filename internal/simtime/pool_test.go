package simtime

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// countingRun executes one n-process run on a fresh engine and fails the
// test on error (with Error, so it may run off the test goroutine).
func countingRun(t *testing.T, n int) {
	t.Helper()
	eng := NewEngine()
	for i := 0; i < n; i++ {
		eng.Spawn("pooled", func(p *Proc) {
			for k := 0; k < 50; k++ {
				p.Sleep(3)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Error(err)
	}
}

// Repeated runs must re-adopt parked workers instead of spawning fresh
// goroutines: after a warm-up run, the spawned-workers counter stays
// flat while the adoption counter keeps climbing.
func TestPoolReusesWorkersAcrossRuns(t *testing.T) {
	DrainWorkerPool()
	countingRun(t, 32) // warm-up: populates the pool
	warm := WorkerPoolStats()
	for round := 0; round < 5; round++ {
		countingRun(t, 32)
	}
	after := WorkerPoolStats()
	if after.Spawned != warm.Spawned {
		t.Fatalf("runs after warm-up spawned %d new workers, want 0 (pool not re-adopting)",
			after.Spawned-warm.Spawned)
	}
	if got := after.Adopted - warm.Adopted; got != 5*32 {
		t.Fatalf("adopted %d processes across 5 warm runs, want %d", got, 5*32)
	}
	if after.Workers != after.Idle {
		t.Fatalf("%d workers exist but only %d are parked after all runs finished",
			after.Workers, after.Idle)
	}
}

// A coroutine is not tied to the goroutine that made it: workers created
// while one goroutine ran an engine must be adopted and resumed by
// engines running concurrently on other goroutines. The pool starts with
// exactly as many parked workers as the four concurrent runs need in
// total, so none of them may spawn.
func TestPoolAdoptsAcrossGoroutines(t *testing.T) {
	DrainWorkerPool()
	creator := make(chan struct{})
	go func() {
		defer close(creator)
		countingRun(t, 32)
	}()
	<-creator
	warm := WorkerPoolStats()
	if warm.Idle != 32 {
		t.Fatalf("%d workers parked after the creating run, want 32", warm.Idle)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				countingRun(t, 8)
			}
		}()
	}
	wg.Wait()
	after := WorkerPoolStats()
	if after.Spawned != warm.Spawned {
		t.Fatalf("engines on other goroutines spawned %d workers, want 0", after.Spawned-warm.Spawned)
	}
	if got := after.Adopted - warm.Adopted; got != 4*10*8 {
		t.Fatalf("adopted %d processes, want %d", got, 4*10*8)
	}
	assertAllParked(t, "cross-goroutine adoption")
}

// Every abnormal exit must leave pool workers parked (counted), not
// leaked and not stuck mid-process: after deadlock, panic, RunUntil and
// kill shutdowns, all workers are idle the moment Run returns, and a
// drain takes the goroutine count straight back to the baseline.
func TestPoolParksWorkersOnAbnormalExits(t *testing.T) {
	DrainWorkerPool()
	base := runtime.NumGoroutine()

	// Deadlock.
	eng := NewEngine()
	var sig Signal
	for i := 0; i < 16; i++ {
		eng.Spawn("stuck", func(p *Proc) { p.WaitOn(&sig, Site("never")) })
	}
	if err := eng.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want deadlock, got %v", err)
	}
	assertAllParked(t, "deadlock")

	// Panic.
	eng = NewEngine()
	for i := 0; i < 16; i++ {
		eng.Spawn("waiter", func(p *Proc) { p.WaitOn(&sig, Site("held")) })
	}
	eng.Spawn("bomb", func(p *Proc) { p.Sleep(5); panic("boom") })
	if err := eng.Run(); err == nil || err.Error() != `simtime: process "bomb" panicked: boom` {
		t.Fatalf("want the panic report, got %v", err)
	}
	assertAllParked(t, "panic")

	// Panic at time zero: the other processes hold a worker but were
	// never dispatched to, so shutdown kills them before their first
	// instruction.
	eng = NewEngine()
	ran := 0
	eng.Spawn("early", func(p *Proc) { panic("at start") })
	for i := 0; i < 16; i++ {
		eng.Spawn("unstarted", func(p *Proc) { ran++ })
	}
	if err := eng.Run(); err == nil || err.Error() != `simtime: process "early" panicked: at start` {
		t.Fatalf("want the panic report, got %v", err)
	}
	if ran != 0 {
		t.Fatalf("%d killed processes ran their body", ran)
	}
	assertAllParked(t, "kill before first dispatch")

	// RunUntil limit.
	eng = NewEngine()
	for i := 0; i < 16; i++ {
		eng.Spawn("spinner", func(p *Proc) {
			for {
				p.Sleep(7)
			}
		})
	}
	if err := eng.RunUntil(100); !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("want time limit, got %v", err)
	}
	assertAllParked(t, "RunUntil")

	// Parked is not leaked: a drain must take the count back to the
	// pre-test baseline.
	waitGoroutines(t, base, "abnormal-exit drain")
}

// assertAllParked checks that every existing pool worker is idle — a
// worker not parked once Run has returned would be a stuck or leaked
// coroutine. The dispatcher parks workers itself, so there is nothing
// to wait for.
func assertAllParked(t *testing.T, context string) {
	t.Helper()
	if s := WorkerPoolStats(); s.Workers != s.Idle {
		t.Fatalf("%s: %d of %d pool workers not parked", context, s.Workers-s.Idle, s.Workers)
	}
}

// DrainWorkerPool must retire exactly the workers that exist and leave
// an empty pool behind, so leak baselines are exact.
func TestDrainWorkerPoolEmptiesPool(t *testing.T) {
	DrainWorkerPool()
	countingRun(t, 24)
	s := WorkerPoolStats()
	if s.Idle == 0 {
		t.Fatal("no parked workers after a 24-process run")
	}
	if got := DrainWorkerPool(); got != s.Workers {
		t.Fatalf("drained %d workers, want %d", got, s.Workers)
	}
	s = WorkerPoolStats()
	if s.Workers != 0 || s.Idle != 0 {
		t.Fatalf("pool not empty after drain: %+v", s)
	}
}

// An engine reused for many sequential programs must keep its
// bookkeeping proportional to the current program, not its spawn
// history: the active list is emptied after every run.
func TestEngineBookkeepingStaysBounded(t *testing.T) {
	eng := NewEngine()
	for round := 0; round < 50; round++ {
		for i := 0; i < 8; i++ {
			eng.Spawn("round", func(p *Proc) { p.Sleep(1) })
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if len(eng.active) != 0 || len(eng.unstarted) != 0 {
			t.Fatalf("round %d: %d active, %d unstarted procs retained after Run",
				round, len(eng.active), len(eng.unstarted))
		}
	}
	if eng.NumSpawned() != 400 {
		t.Fatalf("spawn counter = %d, want 400", eng.NumSpawned())
	}
}
