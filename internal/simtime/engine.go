package simtime

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrDeadlock is returned by Engine.Run when live processes remain but no
// events are pending, i.e. every remaining process waits on a signal that
// nobody will ever raise.
var ErrDeadlock = errors.New("simtime: deadlock")

// event is a scheduled wake-up of a process.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: insertion order, for determinism
	proc *Proc
	// gen snapshots the process's wake generation at schedule time. A
	// process that blocks with two pending wake-up sources (a signal and
	// a timeout, see Proc.WaitOnTimeout) is resumed by whichever fires
	// first; the loser's event is recognized as stale by its generation
	// and discarded instead of resuming the process at the wrong point.
	gen uint64
}

// eventQueue is a sorted ring deque of events ordered ascending by
// (at, seq). It replaced a 4-ary min-heap once process switching was
// cheap enough for the heap's O(log n) sift-down on every pop to be the
// next largest term. The deque makes pop O(1) — take the head, advance
// the ring index — and puts the cost on push, where the simulator's
// real insertion patterns are nearly free: a sleeping process schedules
// the latest event so far (append at the tail, zero shifts), and a
// Broadcast schedules at the current instant (insert at or near the
// head, shifting only the same-time band). Arbitrary deadlines (WaitOnTimeout) binary-search
// their slot and shift the smaller side. (at, seq) is a total order
// because seq is unique, so the pop sequence is identical to both heap
// implementations before it; TestEventQueueMatchesContainerHeap pins
// that.
//
// The zero value is an empty queue.
type eventQueue struct {
	buf  []event // ring storage; len(buf) is zero or a power of two
	head int     // ring index of the minimum event
	n    int     // live events
}

func (h *eventQueue) Len() int { return h.n }

// min returns the minimum event without removing it. The queue must be
// non-empty.
func (h *eventQueue) min() *event { return &h.buf[h.head] }

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e at its sorted position.
func (h *eventQueue) push(e event) {
	if h.n == len(h.buf) {
		h.grow()
	}
	mask := len(h.buf) - 1
	// Tail fast path: the new event sorts after everything queued (every
	// Sleep in a forward-moving simulation lands here).
	if h.n == 0 || !eventLess(e, h.buf[(h.head+h.n-1)&mask]) {
		h.buf[(h.head+h.n)&mask] = e
		h.n++
		return
	}
	// Binary search the logical positions [0, n) for the first event
	// that sorts after e; unique (at, seq) keys mean no equal case.
	lo, hi := 0, h.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventLess(e, h.buf[(h.head+mid)&mask]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// Insert at logical position lo, shifting whichever side is smaller.
	if lo >= h.n-lo {
		for i := h.n; i > lo; i-- {
			h.buf[(h.head+i)&mask] = h.buf[(h.head+i-1)&mask]
		}
		h.buf[(h.head+lo)&mask] = e
	} else {
		h.head = (h.head - 1) & mask
		for i := 0; i < lo; i++ {
			h.buf[(h.head+i)&mask] = h.buf[(h.head+i+1)&mask]
		}
		h.buf[(h.head+lo)&mask] = e
	}
	h.n++
}

// pop removes and returns the minimum event. The queue must be non-empty.
func (h *eventQueue) pop() event {
	e := h.buf[h.head]
	h.head = (h.head + 1) & (len(h.buf) - 1)
	h.n--
	return e
}

// grow doubles the ring, linearizing the live events to the front.
func (h *eventQueue) grow() {
	c := len(h.buf) * 2
	if c == 0 {
		c = 64
	}
	nb := make([]event, c)
	k := copy(nb, h.buf[h.head:])
	copy(nb[k:], h.buf[:h.head])
	h.buf = nb
	h.head = 0
}

// Engine is a deterministic discrete-event scheduler. Create one with
// NewEngine, add processes with Spawn, then call Run.
//
// Run is a dispatcher loop on the caller's goroutine: pop the next
// runnable event, resume the coroutine of the process it wakes, and
// take control back when that process blocks or returns. Every process
// body runs on a pooled iter.Pull coroutine (see pool.go), so a switch
// in either direction is a runtime coroswitch — a direct
// goroutine-to-goroutine transfer that touches no run queue and wakes
// no thread. Exactly one goroutine runs at any instant and therefore
// owns all engine state. A blocking process pops the next event itself:
// when it is its own wake-up it advances the clock and keeps running
// (no switch at all, the same-proc fast path); otherwise it leaves the
// woken process in Engine.next and yields to the dispatcher.
type Engine struct {
	now   Time
	queue eventQueue
	seq   uint64
	// spawned numbers processes (Proc.ID); unstarted queues processes
	// spawned since the last Run, and active tracks the current run's
	// started-but-unreaped processes. Keeping only these two short lists
	// makes engine bookkeeping O(active processes): an engine reused for
	// many programs does not accumulate (or rescan) every process it ever
	// ran, which is what made goroutine-per-run teardown O(total cores)
	// before the pool.
	spawned   int
	unstarted []*Proc
	active    []*Proc
	live      int // processes that have not finished
	failed    error

	// next is the process whose wake-up a blocking process popped before
	// yielding; the dispatcher resumes it instead of popping again. Nil
	// when the yielding process found nothing runnable.
	next *Proc

	// RunUntil state: abort when an event beyond limit is popped.
	limit   Time
	limited bool
	// limitHit/limitAt carry the abort from whoever popped the offending
	// event to the end of Run, which formats the error.
	limitHit bool
	limitAt  Time

	// Scheduler statistics: events delivered by a switch to another
	// process vs. absorbed inline by the same-proc fast path.
	handoffs uint64
	fastpath uint64
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current virtual time. During Run this is the timestamp
// of the event being executed.
func (e *Engine) Now() Time { return e.now }

// NumSpawned reports how many processes have been spawned on this
// engine over its lifetime.
func (e *Engine) NumSpawned() int { return e.spawned }

// SchedStats reports how many events have been delivered by switching
// to another process and how many were absorbed inline by the same-proc
// fast path since the engine was created. Their sum is the total number
// of events executed; fastpath/(handoffs+fastpath) is the fast-path hit
// rate.
func (e *Engine) SchedStats() (handoffs, fastpath uint64) {
	return e.handoffs, e.fastpath
}

// Spawn registers a new process that will begin executing fn at time 0
// when Run is called. The name is used in diagnostics. fn runs on a
// coroutine of its own but only while the engine has switched to it; it
// must use the Proc's blocking methods (Sleep, WaitOn, ...) rather than
// real-time synchronization.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{id: e.spawned, name: name, eng: e, fn: fn}
	e.spawned++
	e.unstarted = append(e.unstarted, p)
	return p
}

// schedule enqueues a wake-up for p at the given absolute time.
func (e *Engine) schedule(p *Proc, at Time) {
	if at < e.now {
		panic(fmt.Sprintf("simtime: scheduling %q in the past (%d < %d)", p.name, at, e.now))
	}
	e.seq++
	e.queue.push(event{at: at, seq: e.seq, proc: p, gen: p.wakeGen})
}

// pop removes the next runnable event, advances the clock to it and
// returns the process it wakes. Stale wake-ups (finished processes,
// losers of a signal/timeout race) are discarded on the way. Nil means
// the run cannot continue: the queue drained, or the event lies beyond
// the RunUntil limit (recorded in limitHit/limitAt).
func (e *Engine) pop() *Proc {
	for e.queue.n > 0 {
		ev := e.queue.pop()
		if ev.proc.done || ev.gen != ev.proc.wakeGen {
			continue
		}
		if e.limited && ev.at > e.limit {
			e.limitHit, e.limitAt = true, ev.at
			return nil
		}
		e.now = ev.at
		return ev.proc
	}
	return nil
}

// Run executes the simulation until every process has returned. It returns
// ErrDeadlock (wrapped with the list of stuck processes) if live processes
// remain with no pending events, or the panic value if a process panics.
//
// Run may be called again after it returns: processes spawned since the
// previous Run start at the current virtual time, so a sequence of
// programs accumulates time on one engine.
//
// Run must not be called from a goroutine locked to an OS thread
// (runtime.LockOSThread): pooled coroutines may have been created by
// another goroutine, and the runtime only resumes a coroutine under the
// thread-lock state it was created in (it throws otherwise).
func (e *Engine) Run() error {
	// Every earlier run ended with all its processes reaped (live == 0 on
	// every exit path), so only the processes spawned since then need
	// starting; the engine never rescans its full spawn history.
	for _, p := range e.unstarted {
		p.start()
		e.schedule(p, e.now)
		e.active = append(e.active, p)
		e.live++
	}
	e.unstarted = e.unstarted[:0]

	for e.live > 0 && e.failed == nil && !e.limitHit {
		p := e.next
		if p == nil {
			if p = e.pop(); p == nil {
				break
			}
		}
		e.next = nil
		e.handoffs++
		p.w.next()
		if p.done {
			// Parked here, not by the worker itself: no worker is ever in
			// flight between finishing and parking once Run has returned.
			parkWorker(p.w)
		}
	}

	var err error
	switch {
	case e.failed != nil:
		err = e.failed
	case e.limitHit:
		e.limitHit = false
		err = fmt.Errorf("%w: next event at %v > limit %v", ErrTimeLimit, e.limitAt, e.limit)
	case e.live > 0:
		err = e.deadlockError()
	}
	if err != nil {
		e.shutdown()
	}
	e.clearActive()
	return err
}

// clearActive empties the active list (all its processes are done),
// dropping the *Proc references so finished processes and their
// closed-over state are collectable even while the engine lives on.
func (e *Engine) clearActive() {
	for i := range e.active {
		e.active[i] = nil
	}
	e.active = e.active[:0]
}

// RunUntil executes like Run but aborts (with ErrTimeLimit) as soon as
// virtual time would pass the limit. A guard against livelocked
// simulated programs (e.g. a protocol that makes "progress" by
// re-polling forever): the abort fires on the first event beyond the
// limit, leaving state consistent up to that point.
func (e *Engine) RunUntil(limit Time) error {
	e.limit = limit
	e.limited = true
	defer func() { e.limited = false }()
	return e.Run()
}

// ErrTimeLimit is returned by RunUntil when the virtual clock passes the
// given limit before all processes finish.
var ErrTimeLimit = errors.New("simtime: virtual time limit exceeded")

// shutdown force-terminates every still-blocked process so that a failed
// simulation leaks nothing. Each victim is resumed once with its killed
// flag set: Proc.block panics with killSentinel, Proc.run swallows it,
// and the coroutine yields back here to be parked, one victim at a time.
func (e *Engine) shutdown() {
	for _, p := range e.active {
		if !p.done {
			p.killed = true
			p.w.next()
			if p.done {
				parkWorker(p.w)
			}
		}
	}
}

func (e *Engine) deadlockError() error {
	var stuck []string
	for _, p := range e.active {
		if !p.done {
			// The sites and notes were recorded as raw integers on the hot
			// path; this is the one place they are actually formatted.
			where := "unknown"
			if p.blockedAt.Kind != WaitNone {
				where = p.blockedAt.String()
			}
			if !p.note.IsZero() {
				stuck = append(stuck, fmt.Sprintf("%s (waiting: %s; last step: %s)", p.name, where, p.note.String()))
			} else {
				stuck = append(stuck, fmt.Sprintf("%s (waiting: %s)", p.name, where))
			}
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("%w at t=%v: %d stuck processes: %s",
		ErrDeadlock, e.now, len(stuck), strings.Join(stuck, ", "))
}
