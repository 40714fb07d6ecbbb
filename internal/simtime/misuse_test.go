package simtime

import (
	"errors"
	"runtime"
	"testing"
)

// misusingCont parks its process on sig and, once woken, calls process
// code from the step (call), which a step must never do.
type misusingCont struct {
	p     *Proc
	sig   *Signal
	woken bool
	call  func(p *Proc)
}

func (k *misusingCont) Wake() Step {
	if !k.woken {
		k.woken = true
		return k.p.Park(k.sig, Never)
	}
	k.call(k.p)
	return Resume()
}

// TestProcessCodeInAStepFails: a continuation's step that calls process
// code — here Sleep, Continue, WaitOn or WaitOnTimeout — fails the run
// with ErrProcessCodeInStep, naming the process whose continuation ran
// and the stack it ran on: another process's (the broadcaster pops the
// wake-up while it sleeps), the dispatcher's (the broadcaster has
// returned), or the process's own (it pops its own wake-up). The
// runtime's own failure, iter.Pull's "yield called again before next",
// names neither; a fast-path Sleep did not fail at all.
func TestProcessCodeInAStepFails(t *testing.T) {
	calls := map[string]func(p *Proc){
		"Sleep":         func(p *Proc) { p.Sleep(1) },
		"Continue":      func(p *Proc) { p.Continue(nil, Resume()) },
		"WaitOn":        func(p *Proc) { p.WaitOn(new(Signal), Site("inner")) },
		"WaitOnTimeout": func(p *Proc) { p.WaitOnTimeout(new(Signal), 5, Site("inner")) },
	}
	for name, call := range calls {
		for _, tc := range []struct {
			stack string
			then  func(p *Proc) // the broadcaster, after its Broadcast
			want  string
		}{
			{"another process's", func(p *Proc) { p.Sleep(10) },
				`: the continuation of "victim" ran on the stack of "host"`},
			{"the dispatcher's", func(*Proc) {},
				`: the continuation of "victim" ran on the dispatcher's stack`},
		} {
			e := NewEngine()
			var sig Signal
			e.Spawn("victim", func(p *Proc) {
				k := &misusingCont{p: p, sig: &sig, call: call}
				p.Continue(k, k.Wake())
			})
			e.Spawn("host", func(p *Proc) {
				p.Sleep(3)
				sig.Broadcast(e)
				tc.then(p)
			})
			err := e.Run()
			if !errors.Is(err, ErrProcessCodeInStep) || err.Error() != ErrProcessCodeInStep.Error()+tc.want {
				t.Errorf("%s on %s stack: Run = %v, want ErrProcessCodeInStep%s", name, tc.stack, err, tc.want)
			}
		}
		e := NewEngine()
		e.Spawn("alone", func(p *Proc) {
			k := &misusingCont{p: p, woken: true, call: call}
			p.Continue(k, SleepThenWake(2))
		})
		want := `: the continuation of "alone" ran on the stack of "alone"`
		if err := e.Run(); !errors.Is(err, ErrProcessCodeInStep) || err.Error() != ErrProcessCodeInStep.Error()+want {
			t.Errorf("%s on its own stack: Run = %v, want ErrProcessCodeInStep%s", name, err, want)
		}
	}
}

// panickingCont parks its process on sig and panics once woken.
type panickingCont struct {
	p     *Proc
	sig   *Signal
	woken bool
}

func (k *panickingCont) Wake() Step {
	if !k.woken {
		k.woken = true
		return k.p.Park(k.sig, Never)
	}
	panic("boom")
}

// stepPanicRun parks "victim" on a continuation that panics when woken;
// "host" broadcasts at t=3 and then runs then. It checks the run's
// error, that the goroutine count is back at its baseline, and that a
// later Run on the same engine is not blamed on the old step.
func stepPanicRun(t *testing.T, then func(p *Proc)) {
	t.Helper()
	base := runtime.NumGoroutine()
	e := NewEngine()
	var sig Signal
	e.Spawn("victim", func(p *Proc) {
		k := &panickingCont{p: p, sig: &sig}
		p.Continue(k, k.Wake())
	})
	e.Spawn("host", func(p *Proc) {
		p.Sleep(3)
		sig.Broadcast(e)
		then(p)
	})
	const want = `simtime: process "victim" panicked: boom`
	if err := e.Run(); err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %s", err, want)
	}
	waitGoroutines(t, base, "step panic")
	e.Spawn("clean", func(p *Proc) { p.Sleep(1) })
	if err := e.Run(); err != nil {
		t.Fatalf("a clean Run after the panic: %v", err)
	}
}

// TestStepPanicOnAnotherStackNamesItsProcess: a step that panics on
// another process's stack (the host pops the victim's wake-up while it
// sleeps) fails the run in the victim's name, not the stack owner's.
func TestStepPanicOnAnotherStackNamesItsProcess(t *testing.T) {
	stepPanicRun(t, func(p *Proc) { p.Sleep(10) })
}

// TestStepPanicOnTheDispatcherNamesItsProcess: a step that panics on the
// dispatcher's stack (the host has returned) fails the run in the
// victim's name instead of escaping Engine.Run.
func TestStepPanicOnTheDispatcherNamesItsProcess(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Run panicked: %v", r)
		}
	}()
	stepPanicRun(t, func(*Proc) {})
}
