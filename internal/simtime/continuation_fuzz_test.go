package simtime

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// This file is the engine's oracle for continuations: a wake-up whose
// work runs as a Cont on whichever stack pops it must happen at the same
// instant, in the same order, as the same work written as process code.

// oracleOp is one step of a generated process program.
type oracleOp struct {
	kind  byte // 's' Sleep, 'w' WaitOn, 't' WaitOnTimeout, 'b' Broadcast, 'c' chain
	d     Duration
	sig   int
	chain []oracleOp // 'c': the chain's steps ('s', 'w', 't', 'b'), run as a Cont in cont mode
	fin   Duration   // 'c': the chain ends resuming the process after Sleep(fin), or at once if fin < 0
}

// oracleSites are the static deadlock-report labels of the signals.
var oracleSites = []WaitSite{Site("sig0"), Site("sig1"), Site("sig2"), Site("sig3")}

// genOracleProgram builds a seeded program of np processes mixing
// sleeps (zero, tied and distinct), WaitOn/Broadcast, WaitOnTimeout and
// chains of sleeps, parks, deadline parks and broadcasts.
func genOracleProgram(seed int64, np, length int) [][]oracleOp {
	rng := rand.New(rand.NewSource(seed))
	nsig := 1 + rng.Intn(len(oracleSites))
	dur := func() Duration { return Duration([]int{0, 0, 1, 2, 3, 5, 8, 13}[rng.Intn(8)]) }
	step := func() oracleOp {
		switch r := rng.Intn(10); {
		case r < 4:
			return oracleOp{kind: 's', d: dur()}
		case r < 6:
			return oracleOp{kind: 'w', sig: rng.Intn(nsig)}
		case r < 8:
			return oracleOp{kind: 'b', sig: rng.Intn(nsig)}
		default:
			return oracleOp{kind: 't', sig: rng.Intn(nsig), d: dur()}
		}
	}
	prog := make([][]oracleOp, np)
	for p := range prog {
		for range 1 + rng.Intn(length) {
			if rng.Intn(3) > 0 {
				prog[p] = append(prog[p], step())
				continue
			}
			ch := oracleOp{kind: 'c', fin: -1}
			for range rng.Intn(6) {
				ch.chain = append(ch.chain, step())
			}
			if rng.Intn(2) == 0 {
				ch.fin = dur()
			}
			prog[p] = append(prog[p], ch)
		}
	}
	return prog
}

// oracleEvent is one traced step: when, which process, which op of its
// program and which step of a chain (or the outcome of a timed wait).
type oracleEvent struct {
	at          Time
	proc, op, k int
}

// chainCont runs a chain's steps as a continuation.
type chainCont struct {
	p     *Proc
	sigs  []Signal
	op    int
	ch    *oracleOp
	next  int
	trace *[]oracleEvent
}

func (k *chainCont) Wake() Step {
	if k.next > len(k.ch.chain) {
		return Resume() // the final sleep is over
	}
	for k.next < len(k.ch.chain) {
		s := k.ch.chain[k.next]
		*k.trace = append(*k.trace, oracleEvent{k.p.Now(), k.p.ID(), k.op, k.next})
		k.next++
		switch s.kind {
		case 's':
			return SleepThenWake(s.d)
		case 'w':
			return k.p.Park(&k.sigs[s.sig], Never)
		case 't':
			return k.p.Park(&k.sigs[s.sig], k.p.Now()+s.d)
		case 'b':
			k.sigs[s.sig].Broadcast(k.p.Engine())
		}
	}
	*k.trace = append(*k.trace, oracleEvent{k.p.Now(), k.p.ID(), k.op, len(k.ch.chain)})
	if k.ch.fin >= 0 {
		k.next++
		return SleepThenWake(k.ch.fin)
	}
	return Resume()
}

// String names the chain's park in deadlock reports with the label its
// process-code twin passes to WaitOn: a chain is only ever reported
// stuck right after its park step.
func (k *chainCont) String() string { return oracleSites[k.ch.chain[k.next-1].sig].Label }

// runOracleProgram runs prog, its chains as process code or as
// continuations, and returns the trace, the error's report and the
// engine's SchedStats.
func runOracleProgram(prog [][]oracleOp, asCont bool) (trace []oracleEvent, report string, handoffs, fastpath uint64) {
	e := NewEngine()
	sigs := make([]Signal, len(oracleSites))
	for _, ops := range prog {
		e.Spawn(fmt.Sprintf("p%02d", len(e.unstarted)), func(p *Proc) {
			rec := func(op, k int) { trace = append(trace, oracleEvent{p.Now(), p.ID(), op, k}) }
			for i := range ops {
				o := &ops[i]
				rec(i, -1)
				switch o.kind {
				case 's':
					p.Sleep(o.d)
				case 'w':
					p.WaitOn(&sigs[o.sig], oracleSites[o.sig])
				case 'b':
					sigs[o.sig].Broadcast(e)
				case 't':
					if p.WaitOnTimeout(&sigs[o.sig], o.d, oracleSites[o.sig]) {
						rec(i, -2)
					}
				case 'c':
					if asCont {
						k := &chainCont{p: p, sigs: sigs, op: i, ch: o, trace: &trace}
						p.Continue(k, k.Wake())
						continue
					}
					for j, s := range o.chain {
						rec(i, j)
						switch s.kind {
						case 's':
							p.Sleep(s.d)
						case 'w':
							p.WaitOn(&sigs[s.sig], oracleSites[s.sig])
						case 't':
							p.WaitOnTimeout(&sigs[s.sig], s.d, oracleSites[s.sig])
						case 'b':
							sigs[s.sig].Broadcast(e)
						}
					}
					rec(i, len(o.chain))
					if o.fin >= 0 {
						p.Sleep(o.fin)
					}
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		report = err.Error()
	}
	handoffs, fastpath = e.SchedStats()
	return trace, report, handoffs, fastpath
}

// FuzzContinuationMatchesSleeps runs each generated program twice: once
// with its chains as plain process code, once with the same steps as
// continuations. The full (time, process, step) trace, the deadlock
// report's stuck sites and the number of events must be identical.
func FuzzContinuationMatchesSleeps(f *testing.F) {
	for _, s := range []struct {
		seed       int64
		np, length uint8
	}{{1, 0, 4}, {2, 1, 8}, {3, 6, 3}, {4, 14, 6}, {5, 30, 5}, {6, 62, 4}, {7, 62, 12}, {8, 3, 16}} {
		f.Add(s.seed, s.np, s.length)
	}
	f.Fuzz(func(t *testing.T, seed int64, np, length uint8) {
		checkOracle(t, genOracleProgram(seed, 2+int(np)%63, 1+int(length)%16))
	})
}

// checkOracle runs prog with its chains as plain process code and as
// continuations and fails t unless the trace, the deadlock report and
// the event count are identical.
func checkOracle(t *testing.T, prog [][]oracleOp) {
	t.Helper()
	plain, plainReport, h, f := runOracleProgram(prog, false)
	cont, contReport, hc, fc := runOracleProgram(prog, true)
	if i := firstTraceDiff(plain, cont); i >= 0 {
		t.Fatalf("traces differ at step %d of %d/%d: plain %v, continuation %v",
			i, len(plain), len(cont), at(plain, i), at(cont, i))
	}
	if plainReport != contReport {
		t.Fatalf("reports differ:\nplain:        %s\ncontinuation: %s", plainReport, contReport)
	}
	if h+f != hc+fc {
		t.Fatalf("events: plain %d+%d, continuation %d+%d", h, f, hc, fc)
	}
}

func firstTraceDiff(a, b []oracleEvent) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at(tr []oracleEvent, i int) any {
	if i < len(tr) {
		return tr[i]
	}
	return "end"
}

// TestContinuationParksAcrossStacks pins the case the oracle exists for:
// a chain parks on a signal, another process's Broadcast wakes it, and
// the chain's sleep runs on the broadcaster's stack, which pops that
// wake-up and then its own. Two switches go (to process 0 at the wake-up,
// back to process 1 after its sleep), and the same events run.
func TestContinuationParksAcrossStacks(t *testing.T) {
	prog := [][]oracleOp{
		{{kind: 'c', chain: []oracleOp{{kind: 'w', sig: 0}, {kind: 's', d: 3}}, fin: -1}, {kind: 's', d: 1}},
		{{kind: 's', d: 4}, {kind: 'b', sig: 0}, {kind: 's', d: 2}},
	}
	plain, _, h, f := runOracleProgram(prog, false)
	cont, _, hc, fc := runOracleProgram(prog, true)
	if !slices.Equal(plain, cont) || h+f != hc+fc || hc != h-2 {
		t.Fatalf("plain %v (%d switches, %d without)\ncontinuation %v (%d switches, %d without)",
			plain, h, f, cont, hc, fc)
	}
}

// TestDeadlineParkMatchesWaitOnTimeout holds a chain's deadline park to
// WaitOnTimeout in process code where the two can part: a Broadcast
// before the deadline tick (it cancels the deadline), at it (the
// deadline, due now, stays the wake-up), after the timer at the same
// tick and after it (the timer deregistered the process, so the
// Broadcast wakes nobody), each followed by a plain wait the next
// Broadcast ends and one that deadlocks; and twenty processes timing
// out on one signal over and over, each timeout splicing its waiter out
// of a crowded list, before a last Broadcast wakes the one long waiter.
func TestDeadlineParkMatchesWaitOnTimeout(t *testing.T) {
	parkThenWait := []oracleOp{
		{kind: 'c', chain: []oracleOp{{kind: 't', sig: 0, d: 10}, {kind: 's', d: 10}}, fin: -1},
		{kind: 'w', sig: 0},
		{kind: 'w', sig: 1},
	}
	// The broadcaster's wake-up at tick 10 queues before the deadline.
	yieldThenPark := append([]oracleOp{{kind: 's'}}, parkThenWait...)
	broadcastAt := func(d Duration) []oracleOp {
		return []oracleOp{{kind: 's', d: d}, {kind: 'b', sig: 0}, {kind: 's', d: 30}, {kind: 'b', sig: 0}}
	}
	crowd := [][]oracleOp{{{kind: 'w', sig: 0}}}
	for i := range 20 {
		var ch []oracleOp
		for j := range 6 {
			ch = append(ch, oracleOp{kind: 't', sig: 0, d: Duration(1 + (i+j)%3)})
		}
		crowd = append(crowd, []oracleOp{{kind: 'c', chain: ch, fin: Duration(i % 2)}})
	}
	crowd = append(crowd, []oracleOp{{kind: 's', d: 40}, {kind: 'b', sig: 0}})
	for _, c := range []struct {
		name string
		prog [][]oracleOp
	}{
		{"broadcast-before-deadline", [][]oracleOp{parkThenWait, broadcastAt(4)}},
		{"broadcast-at-deadline", [][]oracleOp{yieldThenPark, broadcastAt(10)}},
		{"deadline-then-broadcast-same-tick", [][]oracleOp{parkThenWait, broadcastAt(10)}},
		{"broadcast-after-deadline", [][]oracleOp{parkThenWait, broadcastAt(15)}},
		{"compacting-crowd", crowd},
	} {
		t.Run(c.name, func(t *testing.T) { checkOracle(t, c.prog) })
	}
}
