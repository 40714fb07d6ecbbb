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

// ErrProcessCodeInStep is returned by Engine.Run when a continuation's
// step called process code (Sleep, WaitOn, WaitOnTimeout, Continue) on
// whichever stack it ran on; the error names the process and the stack.
var ErrProcessCodeInStep = errors.New("simtime: process code called from a continuation step")

// event is a scheduled wake-up of a process. A process has at most one
// queued (see Signal.Broadcast).
type event struct {
	at   Time
	seq  uint64 // tie-breaker: insertion order, for determinism
	proc *Proc
}

// eventQueue holds the pending events in two tiers, each ordered by
// (at, seq); min and pop take the lesser of the two heads. (at, seq) is a
// total order because seq is unique, so the pop sequence does not depend
// on which tier holds an event and is that of the container/heap
// reference (TestEventQueueMatchesContainerHeap and its Deep twin).
//
// The near tier is a sorted ring deque with an O(1) pop. A push that sorts
// last appends at the tail (every Sleep in a forward-moving simulation);
// any other binary-searches its slot and shifts the smaller side, which
// for a Broadcast's same-instant wake-ups is only the band at the head.
// The far tier is a 4-ary min-heap on (at, seq). It takes every push whose
// shift would exceed farShift: on a mesh of thousands of cores, wake-ups
// come after distance-dependent latencies and land mid-queue, where the
// deque alone would memmove O(n) events per push.
//
// The zero value is an empty queue.
type eventQueue struct {
	buf  []event // near tier: ring storage; len(buf) is zero or a power of two
	head int     // ring index of the near tier's minimum
	near int     // near-tier events
	far  []event // far tier: 4-ary min-heap
	n    int     // events in both tiers
}

// farShift is the longest shift a near-tier push may pay. The smaller side
// of d events is at most d/2, so nothing spills below 2*farShift near-tier
// events. The queue holds at most one wake-up per process, so an engine
// of up to 2*farShift processes (the paper's 48-core chip, any fault
// sweep on it) never allocates the far heap.
const farShift = 128

func (h *eventQueue) Len() int { return h.n }

// nearFirst reports whether the near tier holds the minimum event. The
// queue must be non-empty.
func (h *eventQueue) nearFirst() bool {
	return len(h.far) == 0 || h.near > 0 && eventLess(h.buf[h.head], h.far[0])
}

// min returns the minimum event without removing it. The queue must be
// non-empty.
func (h *eventQueue) min() *event {
	if h.nearFirst() {
		return &h.buf[h.head]
	}
	return &h.far[0]
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e at its sorted position in the near tier, or into the far
// tier if that position is more than farShift events from either end.
func (h *eventQueue) push(e event) {
	h.n++
	if h.near == len(h.buf) {
		h.grow()
	}
	mask := len(h.buf) - 1
	// Tail fast path: the new event sorts after the whole near tier.
	if h.near == 0 || !eventLess(e, h.buf[(h.head+h.near-1)&mask]) {
		h.buf[(h.head+h.near)&mask] = e
		h.near++
		return
	}
	lo := h.search(e)
	if min(lo, h.near-lo) > farShift {
		h.pushFar(e)
		return
	}
	// Insert at logical position lo, shifting whichever side is smaller.
	if lo >= h.near-lo {
		for i := h.near; i > lo; i-- {
			h.buf[(h.head+i)&mask] = h.buf[(h.head+i-1)&mask]
		}
	} else {
		h.head = (h.head - 1) & mask
		for i := 0; i < lo; i++ {
			h.buf[(h.head+i)&mask] = h.buf[(h.head+i+1)&mask]
		}
	}
	h.buf[(h.head+lo)&mask] = e
	h.near++
}

// search returns the first logical near-tier position [0, near] whose
// event does not sort before e; (at, seq) keys are unique.
func (h *eventQueue) search(e event) int {
	mask := len(h.buf) - 1
	lo, hi := 0, h.near
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventLess(h.buf[(h.head+mid)&mask], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// remove deletes the queued event keyed (at, seq). In the near tier it
// shifts the events behind it forward: a cancelled deadline sorts near
// the tail. The far heap, which only a queue deeper than 2*farShift has,
// is scanned.
func (h *eventQueue) remove(at Time, seq uint64) {
	h.n--
	mask := len(h.buf) - 1
	if i := h.search(event{at: at, seq: seq}); i < h.near && h.buf[(h.head+i)&mask].seq == seq {
		for h.near--; i < h.near; i++ {
			h.buf[(h.head+i)&mask] = h.buf[(h.head+i+1)&mask]
		}
		return
	}
	for i := range h.far {
		if h.far[i].seq == seq {
			h.removeFar(i)
			return
		}
	}
	panic("simtime: removing an event that is not queued")
}

// pop removes and returns the minimum event. The queue must be non-empty.
func (h *eventQueue) pop() event {
	h.n--
	if !h.nearFirst() {
		return h.removeFar(0)
	}
	e := h.buf[h.head]
	h.head = (h.head + 1) & (len(h.buf) - 1)
	h.near--
	return e
}

// grow doubles the ring, linearizing the near tier to the front.
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

// pushFar sifts e up the far tier's heap. It stays out of line: inlined
// into push, its append slowed every near-tier push at depth 48 by ~8 %
// (BenchmarkEventQueue/depth=48).
//
//go:noinline
func (h *eventQueue) pushFar(e event) {
	q := append(h.far, e)
	i := len(q) - 1
	for i > 0 && eventLess(e, q[(i-1)/4]) {
		q[i] = q[(i-1)/4]
		i = (i - 1) / 4
	}
	q[i] = e
	h.far = q
}

// removeFar deletes and returns the far tier's event at heap index i: the
// last event takes its place and sifts up, or else down.
func (h *eventQueue) removeFar(i int) event {
	q := h.far
	top, last := q[i], q[len(q)-1]
	q[len(q)-1] = event{} // drop the *Proc reference
	q = q[:len(q)-1]
	h.far = q
	for i > 0 && eventLess(last, q[(i-1)/4]) {
		q[i] = q[(i-1)/4]
		i = (i - 1) / 4
	}
	for c := 4*i + 1; c < len(q); c = 4*i + 1 {
		m := c
		for j := c + 1; j < min(c+4, len(q)); j++ {
			if eventLess(q[j], q[m]) {
				m = j
			}
		}
		if !eventLess(q[m], last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	if i < len(q) {
		q[i] = last
	}
	return top
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
// (no switch at all, the same-proc fast path). A wake-up whose process
// armed a continuation (Cont) is run right there, on the popping stack,
// and the next event popped when it leaves its process waiting.
// Otherwise the blocking process leaves the woken process in Engine.next
// and yields to the dispatcher.
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

	// next is the process whose wake-up a blocking process popped (and
	// delivered) before yielding; the dispatcher resumes it instead of
	// popping again. Nil when the yielding process found nothing
	// runnable.
	next *Proc

	// waking is the process whose continuation's step is running (nil
	// outside one), running the one the dispatcher switched to (nil on
	// its own stack): what ErrProcessCodeInStep names.
	waking, running *Proc

	// Scheduler statistics: events delivered by a switch to another
	// process vs. delivered without one (the same-proc fast path, or a
	// continuation that left its process waiting).
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
// to another process and how many without a switch since the engine was
// created. An event goes without a switch when it takes the same-proc
// fast path (a sleep that needs no queue, or a process popping its own
// wake-up) or when its process's continuation runs it and leaves the
// process waiting. Their sum is the total number of events executed;
// fastpath/(handoffs+fastpath) is the share delivered without a switch.
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
	e.queue.push(event{at: at, seq: e.seq, proc: p})
}

// pop removes the next event, advances the clock to it and returns the
// process it wakes. Nil means the queue drained: the run cannot continue.
func (e *Engine) pop() *Proc {
	if e.queue.n == 0 {
		return nil
	}
	ev := e.queue.pop()
	e.now = ev.at
	return ev.proc
}

// deliver hands the popped process q its wake-up on the calling stack.
// Without an armed continuation q must be switched to, and deliver
// reports true at once. Otherwise it runs q's continuation until a step
// resumes q (true: the caller switches to it) or leaves q waiting on a
// queued wake-up or a signal (false: the event was delivered without a
// switch, and the caller pops the next). Each fast-path sleep on the
// way is an event of its own, counted by sleep; the last event of the
// chain is counted here when no switch delivers it. Proc.Continue
// carries out the same steps on the process's own stack; the loop is
// written twice because one shared helper cost the RCKMPI Allgather
// cell 3-5 % of its host time.
func (e *Engine) deliver(q *Proc) bool {
	k := q.w.cont
	if k == nil {
		return true
	}
	q.w.cont = nil
	if q.dlSeq != 0 {
		q.disarm()
	}
	for {
		st := e.wake(q, k)
		if st.kind == stepResume {
			return true
		}
		if st.kind != stepParked && e.sleep(q, st.d) {
			continue
		}
		q.w.cont = k
		e.fastpath++
		return false
	}
}

// Run executes the simulation until every process has returned. It returns
// ErrDeadlock (wrapped with the list of stuck processes) if live processes
// remain with no pending events, or the panic value if a process panics.
//
// Run may be called again after it returns, failed or not: processes
// spawned since the previous Run start at the current virtual time, so a
// sequence of programs accumulates time on one engine.
//
// Run must not be called from a goroutine locked to an OS thread
// (runtime.LockOSThread): pooled coroutines may have been created by
// another goroutine, and the runtime only resumes a coroutine under the
// thread-lock state it was created in (it throws otherwise).
func (e *Engine) Run() (err error) {
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
	defer func() {
		if r := recover(); r != nil { // from a step the dispatcher ran
			if e.waking == nil {
				panic(r)
			}
			e.failed = e.panicked(nil, r)
		}
		switch {
		case e.failed != nil:
			err = e.failed
		case e.live > 0:
			err = e.deadlockError()
		}
		if err != nil {
			e.shutdown()
			e.failed = nil // reported once: a later Run starts afresh
		}
		e.clearActive()
	}()
	for e.live > 0 && e.failed == nil {
		p := e.next
		if p == nil {
			if p = e.pop(); p == nil {
				break
			}
			if !e.deliver(p) {
				continue
			}
		}
		e.next = nil
		e.handoffs++
		e.running = p
		p.w.next()
		e.running = nil
		if p.done {
			// Parked here, not by the worker itself: no worker is ever in
			// flight between finishing and parking once Run has returned.
			parkWorker(p.w)
		}
	}
	return nil
}

// wake runs one step of p's continuation k.
func (e *Engine) wake(p *Proc, k Cont) Step {
	e.waking = p
	st := k.Wake()
	e.waking = nil
	return st
}

// stepMisuse unwinds the stack of a step that called process code;
// Proc.run and Run make its error the run's.
type stepMisuse struct{ err error }

// panicked is the run's error for the panic r recovered on owner's stack
// (nil: the dispatcher's). A panic out of a step is the process's whose
// continuation ran it, whichever stack that was: wake sets no defer, so
// waking still names it here.
func (e *Engine) panicked(owner *Proc, r any) error {
	if e.waking != nil {
		owner, e.waking = e.waking, nil
	}
	if m, ok := r.(stepMisuse); ok {
		return m.err
	}
	return fmt.Errorf("simtime: process %q panicked: %v", owner.name, r)
}

// processCode, called by process code, fails the run inside a step.
func (e *Engine) processCode() {
	if e.waking != nil {
		e.misuse()
	}
}

func (e *Engine) misuse() {
	on := "the dispatcher's stack"
	if e.running != nil {
		on = fmt.Sprintf("the stack of %q", e.running.name)
	}
	err := fmt.Errorf("%w: the continuation of %q ran on %s", ErrProcessCodeInStep, e.waking.name, on)
	panic(stepMisuse{err})
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

// shutdown force-terminates every still-blocked process and drops their
// wake-ups, so a failed simulation leaks nothing into a later Run. Each
// victim is resumed once with its killed flag set: Proc.block panics with
// killSentinel, Proc.run swallows it, and the coroutine yields back here
// to be parked, one victim at a time.
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
	e.queue = eventQueue{}
}

func (e *Engine) deadlockError() error {
	var stuck []string
	for _, p := range e.active {
		if !p.done {
			// A parked continuation describes its own wait; process code
			// left a static label. Notes were recorded as raw integers on
			// the hot path; this is the one place they are formatted.
			where := p.blockedAt.Label
			if k, ok := p.w.cont.(fmt.Stringer); ok {
				where = k.String()
			}
			if where == "" {
				where = "unknown"
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
