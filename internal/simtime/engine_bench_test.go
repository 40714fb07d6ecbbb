package simtime

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEventLoop measures the engine's schedule/pop/context-switch
// cycle: 48 processes (one simulated chip's worth) each sleeping
// repeatedly, so every iteration is one full trip through the event
// queue plus one process switch (a yield and a resume).
func BenchmarkEventLoop(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	per := b.N/48 + 1
	for p := 0; p < 48; p++ {
		e.Spawn("bench", func(p *Proc) {
			for i := 0; i < per; i++ {
				p.Sleep(3)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHandoff isolates the process switch: two processes whose
// wake-ups strictly alternate, so every Sleep finds the other process's
// event at the head of the queue and must yield to the dispatcher, which
// resumes the other coroutine. Zero fast-path hits by construction.
func BenchmarkHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	per := b.N/2 + 1
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1) // offset so the two wake chains interleave: 1,3,5,... vs 2,4,6,...
		for i := 0; i < per; i++ {
			p.Sleep(2)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < per; i++ {
			p.Sleep(2)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if h, f := e.SchedStats(); int(h) < b.N || f > 2 {
		b.Fatalf("not a pure handoff workload: handoffs=%d fastpath=%d N=%d", h, f, b.N)
	}
}

// BenchmarkSameProcFastPath isolates the fused Sleep fast path: a single
// process sleeping with an empty queue advances the clock inline with no
// queue operation and no switch at all.
func BenchmarkSameProcFastPath(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := b.N
	e.Spawn("solo", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(3)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if _, f := e.SchedStats(); int(f) < b.N {
		b.Fatalf("fast path missed: fastpath=%d N=%d", f, b.N)
	}
}

// BenchmarkTimeoutManyWaiters measures WaitOnTimeout's loser
// deregistration under a crowded signal: 512 waiters all time out every
// round, so each op is one register + one timed-out deregistration,
// which scans and splices the list: O(waiters) per op. This is the
// worst case, not the common one: every deadline park of a simulated
// chip is a core alone on its own signal.
func BenchmarkTimeoutManyWaiters(b *testing.B) {
	b.ReportAllocs()
	const waiters = 512
	e := NewEngine()
	var sig Signal
	per := b.N/waiters + 1
	for w := 0; w < waiters; w++ {
		e.Spawn("waiter", func(p *Proc) {
			for i := 0; i < per; i++ {
				if p.WaitOnTimeout(&sig, 5, Site("bench")) {
					panic("unexpected signal")
				}
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventQueue isolates the event queue itself (no process
// switch): push/pop cycles at a steady queue depth, each wake-up a random
// step past the event just popped. Depth 48 is one chip's standing
// population with short steps; depths 2,500 and 10,000 are the 50x50 and
// 100x100 meshes, where distance-dependent latencies spread wake-ups over
// the whole queue and most pushes land mid-queue.
func BenchmarkEventQueue(b *testing.B) {
	for _, c := range []struct{ depth, spread int }{{48, 13}, {2_500, 2_500}, {10_000, 10_000}} {
		b.Run(fmt.Sprintf("depth=%d", c.depth), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var q eventQueue
			for i := 0; i < c.depth; i++ {
				q.push(event{at: Time(rng.Intn(c.spread)), seq: uint64(i)})
			}
			var step [1024]Time
			for i := range step {
				step[i] = Time(rng.Intn(c.spread))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := q.pop()
				e.at += step[i%len(step)]
				e.seq = uint64(c.depth + i)
				q.push(e)
			}
		})
	}
}
