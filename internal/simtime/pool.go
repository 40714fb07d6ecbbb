package simtime

import (
	"iter"
	"sync"
)

// This file is the process-coroutine pool. Before it, every Spawn paid a
// fresh goroutine (stack allocation plus scheduler registration) and
// every run teardown paid the matching exits — a bench sweep creates and
// destroys NumCores goroutines per cell, and a 10,000-core chip would
// create and destroy 10,000 per run. The pool replaces that with
// trampoline workers: a worker coroutine runs one process to completion,
// is parked on a free list by the dispatcher, and is re-adopted by the
// next started process of any engine in the same Go process, whichever
// goroutine that engine runs on.
//
// Determinism is untouched: the pool only changes which coroutine a
// process body runs on, which no simulated program can observe.
//
// The pool is process-global (workers outlive engines by design), so all
// bookkeeping is mutex-guarded. The synchronization is cheap: exactly
// two pool operations per process lifetime (adopt, park), nothing on the
// event hot path.

// worker is one trampoline coroutine made by iter.Pull. next switches
// to it and returns when it yields; stop retires it. Only the goroutine
// that owns the worker — the one running the engine that adopted it, or
// the one draining the pool — calls either.
type worker struct {
	next func() (struct{}, bool)
	stop func()
	// yield switches back to whoever called next; it reports false once
	// stop has been called.
	yield func(struct{}) bool
	// proc is the adopted process, set by Proc.start before the next
	// resume and cleared when the process is done.
	proc *Proc
	// cont is proc's armed continuation (see Proc.Continue): set while
	// the process waits on a wake-up that must run it, nil otherwise. It
	// lives here, not on the Proc, because workers are pooled and a
	// 10,000-core chip allocates one Proc per core.
	cont Cont
}

// loop is the trampoline, the body of the coroutine: run the adopted
// process to completion, yield to the dispatcher (which parks the
// worker), and find the next process adopted on waking.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.proc.run()
		w.proc, w.cont = nil, nil // a killed process may leave cont armed
		if !yield(struct{}{}) {
			return
		}
	}
}

var pool struct {
	mu   sync.Mutex
	idle []*worker
	// workers counts worker coroutines in existence (parked or running);
	// spawned and adopted are lifetime totals for stats and tests.
	workers int
	spawned uint64
	adopted uint64
}

// getWorker pops a parked worker, or creates one when the free list is
// empty. LIFO reuse keeps recently-used stacks warm.
func getWorker() *worker {
	pool.mu.Lock()
	if n := len(pool.idle); n > 0 {
		w := pool.idle[n-1]
		pool.idle[n-1] = nil
		pool.idle = pool.idle[:n-1]
		pool.adopted++
		pool.mu.Unlock()
		return w
	}
	pool.workers++
	pool.spawned++
	pool.mu.Unlock()
	w := &worker{}
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// parkWorker returns a worker to the free list.
func parkWorker(w *worker) {
	pool.mu.Lock()
	pool.idle = append(pool.idle, w)
	pool.mu.Unlock()
}

// PoolStats is a snapshot of the worker pool.
type PoolStats struct {
	// Workers is how many worker coroutines exist right now (parked or
	// running a process); Idle is how many of them are parked.
	Workers, Idle int
	// Spawned counts workers ever created; Adopted counts processes that
	// reused a parked worker instead of costing a new coroutine.
	Spawned, Adopted uint64
}

// WorkerPoolStats reports the current pool state. Tests use it to prove
// that repeated runs re-adopt workers instead of spawning, and that
// abnormal exits leave workers parked rather than leaked.
func WorkerPoolStats() PoolStats {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return PoolStats{
		Workers: pool.workers,
		Idle:    len(pool.idle),
		Spawned: pool.spawned,
		Adopted: pool.adopted,
	}
}

// DrainWorkerPool retires every parked pool worker and returns how many
// were drained. Retiring is synchronous: when it returns, the drained
// coroutines' goroutines have exited. A finished process's worker is
// parked before Run returns, so with no engine running every worker is
// parked and the pool is left empty. It must not be called while an
// engine is running.
func DrainWorkerPool() int {
	pool.mu.Lock()
	idle := pool.idle
	pool.idle = nil
	pool.workers -= len(idle)
	pool.mu.Unlock()
	for _, w := range idle {
		w.stop()
	}
	return len(idle)
}
