package simtime

import "fmt"

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
	killed    bool     // set by Engine.shutdown to abort the process
	blockedAt WaitSite // current blocking point, formatted only for deadlock reports
	note      Note     // last successful protocol step, for deadlock reports
	started   bool

	// wakeGen counts resumes. Events snapshot it at schedule time so the
	// engine can discard wake-ups that lost a race (see event.gen).
	wakeGen uint64
	// waitIdx is this process's slot in the waiter list of the signal it
	// is (or last was) registered on, so a timed-out WaitOnTimeout can
	// deregister in O(1) instead of scanning the list.
	waitIdx int
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
		if r := recover(); r != nil {
			if _, isKill := r.(killSentinel); !isKill && p.eng.failed == nil {
				p.eng.failed = fmt.Errorf("simtime: process %q panicked: %v", p.name, r)
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
// registration) first. The process pops the next event itself: its own
// wake-up is the same-proc fast path and costs no switch; anything else
// — another process's wake-up, or nothing runnable (deadlock, RunUntil
// limit) — is left in Engine.next for the dispatcher to act on.
func (p *Proc) block(site WaitSite) {
	p.blockedAt = site
	e := p.eng
	if q := e.pop(); q == p {
		e.fastpath++
	} else {
		e.next = q
		p.w.yield(struct{}{})
	}
	p.wakeGen++ // any event scheduled before this resume is now stale
	if p.killed {
		panic(killSentinel{})
	}
	p.blockedAt = WaitSite{}
}

// Sleep advances the process's virtual time by d ticks. Negative or zero
// durations return immediately without yielding... except d == 0, which
// still yields so that same-time events from other processes interleave
// deterministically by schedule order.
func (p *Proc) Sleep(d Duration) {
	e := p.eng
	if d < 0 {
		d = 0
	}
	at := e.now + d
	// Same-proc fast path, fused with the queue: if no pending event can
	// precede our wake-up (strictly — an equal-time event has a smaller
	// sequence number and must run first), the wake-up would be the next
	// event popped, so skip the queue and the switch entirely and just
	// advance the clock. Not applicable past a RunUntil limit: the abort
	// must unwind through the slow path.
	if (e.queue.n == 0 || at < e.queue.min().at) && !(e.limited && at > e.limit) {
		e.fastpath++
		e.now = at
		return
	}
	e.schedule(p, at)
	// A sleeping process always has a pending wake-up, so it can never
	// appear in a deadlock report; a static label suffices.
	p.block(siteSleep)
}

// siteSleep is the shared site for Sleep, so sleeping never allocates.
var siteSleep = Site("sleep")

// Yield gives other processes scheduled at the current instant a chance to
// run before this one continues.
func (p *Proc) Yield() { p.Sleep(0) }

// WaitOn blocks the process until s is signaled. The process wakes at the
// virtual time of the Signal call. The site appears in deadlock
// diagnostics, formatted only if a report is rendered.
func (p *Proc) WaitOn(s *Signal, site WaitSite) {
	s.waiters = append(s.waiters, p)
	p.block(site)
}

// WaitOnTimeout blocks the process until s is signaled or d ticks elapse,
// whichever comes first. It reports true if the signal fired, false on
// timeout. The loser of the race is discarded via the wake-generation
// mechanism, so a later Broadcast cannot resume the process at the wrong
// point, and an expired timer event is skipped harmlessly.
func (p *Proc) WaitOnTimeout(s *Signal, d Duration, site WaitSite) bool {
	if d < 0 {
		d = 0
	}
	p.eng.schedule(p, p.eng.now+d)
	p.waitIdx = len(s.waiters)
	s.waiters = append(s.waiters, p)
	p.block(site)
	// Broadcast empties the waiter list; if our slot still holds us, the
	// timer won the race and we must deregister. Clearing the slot (not
	// splicing) keeps every other waiter's recorded index valid, so
	// deregistration is O(1); Broadcast skips the hole.
	if p.waitIdx < len(s.waiters) && s.waiters[p.waitIdx] == p {
		s.waiters[p.waitIdx] = nil
		s.holes++
		// Without an eventual Broadcast the hole-ridden list would grow
		// without bound under repeated timeouts; compact (preserving
		// order, so wake order is unchanged) once holes dominate.
		if s.holes > len(s.waiters)/2 && len(s.waiters) >= 16 {
			s.compact()
		}
		return false
	}
	return true
}

// SetNote records the process's last successful protocol step. It is
// included in deadlock reports next to the blocking point, so a hang
// names both where the process is stuck and what it last achieved. The
// note is a deferred-format value: nothing is rendered unless a
// deadlock report is.
func (p *Proc) SetNote(n Note) { p.note = n }

// LastNote returns the last note set with SetNote.
func (p *Proc) LastNote() Note { return p.note }

// Signal is a broadcast wake-up point: processes block on it with WaitOn
// and are all released by Broadcast. The zero value is ready to use.
type Signal struct {
	// waiters lists the blocked processes in registration order. A nil
	// entry is a hole left by a timed-out WaitOnTimeout (see holes).
	waiters []*Proc
	// holes counts nil entries in waiters, so Waiters stays O(1).
	holes int
}

// Broadcast wakes every process currently waiting on s at the present
// virtual time. It must be called from within a running process or before
// Run starts. Waiters resume in the order they began waiting.
func (s *Signal) Broadcast(eng *Engine) {
	for i, w := range s.waiters {
		if w != nil {
			eng.schedule(w, eng.now)
		}
		// Clear the slot before truncating: the backing array survives
		// for the next waiters, and a retained *Proc would keep a
		// finished process (and its closed-over state) from the GC.
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
	s.holes = 0
}

// compact squeezes the holes out of the waiter list in place, keeping
// registration order (so Broadcast wake order is unaffected) and fixing
// up each survivor's recorded index.
func (s *Signal) compact() {
	w := s.waiters[:0]
	for _, q := range s.waiters {
		if q != nil {
			q.waitIdx = len(w)
			w = append(w, q)
		}
	}
	for i := len(w); i < len(s.waiters); i++ {
		s.waiters[i] = nil
	}
	s.waiters = w
	s.holes = 0
}

// Waiters reports how many processes are currently blocked on s.
func (s *Signal) Waiters() int { return len(s.waiters) - s.holes }
