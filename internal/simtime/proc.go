package simtime

import (
	"math"
	"slices"
)

// Proc is a simulated process. All methods must be called from within the
// process's own function (the fn passed to Engine.Spawn); they cooperate
// with the engine to advance virtual time.
type Proc struct {
	id   int
	name string
	eng  *Engine
	fn   func(*Proc)

	// w is the pool worker whose coroutine runs fn. It is the process's
	// own from start until fn has returned, when the dispatcher parks it.
	w *worker

	done      bool
	killed    bool // set by Engine.shutdown to abort the process
	started   bool
	blockedAt WaitSite // label of the current blocking point, for deadlock reports
	note      Note     // last successful protocol step, for deadlock reports

	// dlAt and dlSeq key the queued deadline of a pending deadline park
	// on sig; dlSeq is zero when there is none (sequence numbers start
	// at 1).
	dlAt  Time
	dlSeq uint64
	sig   *Signal
}

// killSentinel is the panic value used to unwind force-terminated
// processes during Engine.shutdown.
type killSentinel struct{}

// ID returns the process's spawn index (0-based).
func (p *Proc) ID() int { return p.id }

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// start hands the process to a pool worker (see pool.go), whose
// coroutine begins running it when the engine first dispatches to it.
func (p *Proc) start() {
	if p.started {
		panic("simtime: process started twice")
	}
	p.started = true
	p.w = getWorker()
	p.w.proc = p
}

// run is the process body executed on a pool worker's coroutine: run
// fn, and on any exit — normal return, panic, or the shutdown kill
// sentinel — mark the process done. Returning switches back to the
// dispatcher (see worker.loop), which parks the worker.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil && p.eng.failed == nil {
			if _, killed := r.(killSentinel); !killed {
				p.eng.failed = p.eng.panicked(p, r)
			}
		}
		p.done = true
		p.eng.live--
	}()
	if p.killed {
		return
	}
	p.fn(p)
}

// block gives up control until the process is woken. The caller must
// have arranged for a future wake-up (a scheduled event or a signal
// registration) first, and labelled where it waits in blockedAt. The
// process pops the next event itself: its own wake-up is the same-proc
// fast path and costs no switch. Another process's wake-up is delivered
// on this stack (Engine.deliver): when that process's continuation
// leaves it waiting, the next event is popped here too. Whatever must
// run on another stack — a resumed process, or nothing runnable
// (deadlock) — is left in Engine.next for the dispatcher to act on.
func (p *Proc) block() {
	e := p.eng
	for {
		q := e.pop()
		if q == p {
			e.fastpath++
			break
		}
		if q == nil || e.deliver(q) {
			e.next = q
			p.w.yield(struct{}{})
			break
		}
	}
	if p.killed {
		panic(killSentinel{})
	}
	p.blockedAt = WaitSite{}
}

// sleep is the queue side of every sleep, Sleep's and a continuation's
// alike: if no pending event can precede the wake-up (strictly — an
// equal-time event has a smaller sequence number and must run first),
// the wake-up would be the next event popped, so it advances the clock
// inline and reports true (the same-proc fast path). Otherwise it
// queues the wake-up and reports false.
func (e *Engine) sleep(p *Proc, d Duration) bool {
	at := e.now + max(d, 0)
	if e.queue.n == 0 || at < e.queue.min().at {
		e.fastpath++
		e.now = at
		return true
	}
	e.schedule(p, at)
	// A sleeping process always has a pending wake-up, so it can never
	// appear in a deadlock report; a static label suffices.
	p.blockedAt = siteSleep
	return false
}

// Sleep advances the process's virtual time by d ticks. A negative d
// counts as zero, and Sleep(0) still gives way to every event already
// queued for the current instant, so same-time events from other
// processes interleave deterministically by schedule order.
func (p *Proc) Sleep(d Duration) {
	p.eng.processCode()
	if !p.eng.sleep(p, d) {
		p.block()
	}
}

// siteSleep is the shared site for Sleep, so sleeping never allocates.
var siteSleep = Site("sleep")

// Yield gives other processes scheduled at the current instant a chance to
// run before this one continues.
func (p *Proc) Yield() { p.Sleep(0) }

// WaitOn blocks the process until s is signaled. The process wakes at the
// virtual time of the Signal call. The site's label names the wait in
// deadlock reports.
func (p *Proc) WaitOn(s *Signal, site WaitSite) {
	p.eng.processCode()
	p.Park(s, Never)
	p.blockedAt = site
	p.block()
}

// WaitOnTimeout blocks the process until s is signaled or d ticks elapse,
// whichever comes first. It reports true if the signal fired, false on
// timeout. It is a deadline park (see Park) run as process code, named
// by the site's label in deadlock reports.
func (p *Proc) WaitOnTimeout(s *Signal, d Duration, site WaitSite) bool {
	p.eng.processCode()
	p.Park(s, p.eng.now+max(d, 0))
	p.blockedAt = site
	p.block()
	return !p.disarm()
}

// disarm ends a deadline park at the process's wake-up and reports
// whether the deadline won. Broadcast empties the waiter list; if p is
// still listed, the timer won the race and p is spliced out, keeping
// the order of the others and clearing the vacated tail slot. The scan
// is O(waiters): every deadline park of a simulated chip is a core
// alone on its own signal.
func (p *Proc) disarm() bool {
	s := p.sig
	p.dlSeq, p.sig = 0, nil
	i := slices.Index(s.waiters, p)
	if i < 0 {
		return false
	}
	s.waiters = slices.Delete(s.waiters, i, i+1)
	return true
}

// Cont is model work that runs at its process's wake-ups in place of the
// process: whichever stack pops the wake-up — the dispatcher's, or that
// of the process blocking at that moment — calls Wake, and the process
// is switched to only once a step resumes it. Work that reads and writes
// model state but runs no program code (the flush before a core's MPB
// access, the probes of its flag wait) is delivered this way without
// the two coroutine switches a wake-up otherwise costs.
//
// Wake must not block: it returns the next Step instead, and process
// code called from it fails the run (ErrProcessCodeInStep). It runs at
// the same point in the event order as the process code it stands for,
// so each of its sleeps is exactly a Sleep (the same fast-path test, the
// same (at, seq)), and only the stack differs.
type Cont interface {
	Wake() Step
}

// Step is what a continuation asks for next. The zero Step is Resume.
type Step struct {
	d    Duration
	kind stepKind
}

type stepKind uint8

const (
	stepResume    stepKind = iota // switch to the process now
	stepSleepWake                 // sleep d, then run the continuation again
	stepParked                    // registered on a signal by Park
)

// Resume continues the process now.
func Resume() Step { return Step{} }

// SleepThenWake sleeps d, exactly as Sleep(d), and then runs the
// continuation again.
func SleepThenWake(d Duration) Step { return Step{d: d, kind: stepSleepWake} }

// Never is the deadline of a park that only a Broadcast ends.
const Never Time = math.MaxInt64

// Park registers the process on s and returns the step that leaves it
// there: the continuation runs again at the wake-up of s's next
// Broadcast or at deadline, whichever comes first (Never: only the
// Broadcast). The deadline is queued here, so its (at, seq) is fixed at
// the park. Exactly one wake-up stays queued: a Broadcast before the
// deadline cancels it, one at the deadline tick finds it due first and
// keeps it, and one after it finds the process no longer registered,
// because a timer that wins deregisters the process before the
// continuation runs (disarm). Park records no description of the wait
// (see Engine.deadlockError).
func (p *Proc) Park(s *Signal, deadline Time) Step {
	if deadline != Never {
		p.eng.schedule(p, deadline)
		p.dlAt, p.dlSeq, p.sig = deadline, p.eng.seq, s
	}
	s.waiters = append(s.waiters, p)
	return Step{kind: stepParked}
}

// Continue carries out st and then k's further steps until one resumes
// the process, and returns then. It must be called from within the
// process's own function. The steps run on this stack only while the
// process pops its own wake-ups; a wake-up another stack pops runs k
// there (Engine.deliver), and the process is switched back to only when
// a step resumes it.
func (p *Proc) Continue(k Cont, st Step) {
	e := p.eng
	e.processCode()
	for st.kind != stepResume {
		if st.kind != stepParked && e.sleep(p, st.d) {
			st = e.wake(p, k)
			continue
		}
		p.w.cont = k
		p.block()
		if p.w.cont == nil {
			return // another stack ran k up to the step that resumed p
		}
		p.w.cont = nil // popped its own wake-up: k runs here
		if p.dlSeq != 0 {
			p.disarm()
		}
		st = e.wake(p, k)
	}
}

// SetNote records the process's last successful protocol step. It is
// included in deadlock reports next to the blocking point, so a hang
// names both where the process is stuck and what it last achieved. The
// note is a deferred-format value: nothing is rendered unless a
// deadlock report is.
func (p *Proc) SetNote(n Note) { p.note = n }

// Signal is a broadcast wake-up point: processes block on it with WaitOn
// or Park and are all released by Broadcast, in registration order. The
// zero value is ready to use.
type Signal struct {
	waiters []*Proc
}

// Broadcast wakes every process currently waiting on s at the present
// virtual time. It must be called from within a running process or before
// Run starts. Waiters resume in the order they began waiting.
//
// A waiter keeps one queued wake-up: its park's deadline, if due now,
// already sorts first and stays; a later one is cancelled. A process
// killed by Engine.shutdown while waiting is skipped.
func (s *Signal) Broadcast(eng *Engine) {
	for i, w := range s.waiters {
		if !w.done && (w.dlSeq == 0 || w.dlAt != eng.now) {
			if w.dlSeq != 0 {
				eng.queue.remove(w.dlAt, w.dlSeq)
			}
			eng.schedule(w, eng.now)
		}
		// Clear the slot before truncating: the backing array survives
		// for the next waiters, and a retained *Proc would keep a
		// finished process (and its closed-over state) from the GC.
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

// Waiters reports how many processes are currently blocked on s.
func (s *Signal) Waiters() int { return len(s.waiters) }
