package simtime

import (
	"container/heap"
	"math/rand"
	"testing"
	"unsafe"
)

// refHeap is the old container/heap-based implementation, kept here as
// the executable specification: the two-tier eventQueue must pop events
// in exactly the same (time, seq) order.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// removeRandom removes one randomly chosen queued event from both the
// queue and the reference (heap.Remove), as a Broadcast cancelling a
// deadline does, and counts which tier of q held it.
func removeRandom(rng *rand.Rand, q *eventQueue, ref *refHeap, tiers *[2]int) {
	e := heap.Remove(ref, rng.Intn(ref.Len())).(event)
	far := 0
	for _, f := range q.far {
		if f.seq == e.seq {
			far = 1
		}
	}
	tiers[far]++
	q.remove(e.at, e.seq)
}

// TestEventQueueMatchesContainerHeap drives the event queue and the
// container/heap reference through identical random push/pop/remove
// sequences and requires identical pop orders. Timestamps collide on
// purpose (many events share an instant in real simulations), so the seq
// tie-break is exercised heavily. Removes must hit both tiers.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tiers [2]int // removes from the near and the far tier
	for trial := 0; trial < 50; trial++ {
		var q eventQueue
		var ref refHeap
		var seq uint64
		for step := 0; step < 2000; step++ {
			if r := rng.Intn(6); q.Len() == 0 || r < 4 {
				seq++
				e := event{at: Time(rng.Intn(50)), seq: seq}
				q.push(e)
				heap.Push(&ref, e)
			} else if r == 4 {
				removeRandom(rng, &q, &ref, &tiers)
			} else {
				got := q.pop()
				want := heap.Pop(&ref).(event)
				if got != want {
					t.Fatalf("trial %d step %d: pop mismatch: got (at=%d seq=%d), want (at=%d seq=%d)",
						trial, step, got.at, got.seq, want.at, want.seq)
				}
			}
		}
		// Drain: the remaining orders must agree too.
		for q.Len() > 0 {
			got := q.pop()
			want := heap.Pop(&ref).(event)
			if got != want {
				t.Fatalf("trial %d drain: pop mismatch: got (at=%d seq=%d), want (at=%d seq=%d)",
					trial, got.at, got.seq, want.at, want.seq)
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: reference has %d leftover events", trial, ref.Len())
		}
	}
	if tiers[0] == 0 || tiers[1] == 0 {
		t.Fatalf("removes by tier (near, far) = %v, want both", tiers)
	}
	t.Logf("removes by tier (near, far): %v", tiers)
}

// TestEventQueueAscendingPops double-checks the ordering directly: pops
// from a randomly filled queue, whichever tier holds each event, never go
// backwards in (at, seq).
func TestEventQueueAscendingPops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	for i := 0; i < 10_000; i++ {
		q.push(event{at: Time(rng.Intn(1000)), seq: uint64(i + 1)})
	}
	prev := q.pop()
	for q.Len() > 0 {
		cur := q.pop()
		if cur.at < prev.at || (cur.at == prev.at && cur.seq < prev.seq) {
			t.Fatalf("pop order regressed: (at=%d seq=%d) after (at=%d seq=%d)",
				cur.at, cur.seq, prev.at, prev.seq)
		}
		prev = cur
	}
}

// TestEventQueueDeepMatchesContainerHeap holds the queue at the depth of a
// 10,000-core mesh, where wake-ups land mid-queue and spill into the far
// tier, and requires the reference's pop order throughout: 10,000 events
// standing, then pushes, pops and removes interleaved over a time spread
// wide enough to fill both tiers yet narrow enough for many equal-at
// collisions. A queue held at a depth no greater than farShift (a 48-core
// chip's population) must never touch the far tier.
func TestEventQueueDeepMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var q eventQueue
	var ref refHeap
	var seq uint64
	var now Time
	push := func(spread int) {
		seq++
		e := event{at: now + Time(rng.Intn(spread)), seq: seq}
		q.push(e)
		heap.Push(&ref, e)
	}
	pop := func(step int) {
		got, want := q.pop(), heap.Pop(&ref).(event)
		if got != want {
			t.Fatalf("step %d: pop mismatch: got (at=%d seq=%d), want (at=%d seq=%d)",
				step, got.at, got.seq, want.at, want.seq)
		}
		now = got.at
	}
	const depth = 10_000
	for i := 0; i < depth; i++ {
		push(2_000)
	}
	var tiers [2]int
	for step := 0; step < 100_000; step++ {
		if r := rng.Intn(8); q.Len() < depth || r < 4 {
			push(2_000)
		} else if r == 4 {
			removeRandom(rng, &q, &ref, &tiers)
		} else {
			pop(step)
		}
		if step == 50_000 && (len(q.far) == 0 || q.near <= farShift) {
			t.Fatalf("tiers not both filled: near %d, far %d", q.near, len(q.far))
		}
	}
	for q.Len() > 0 {
		pop(-1)
	}
	if tiers[0] == 0 || tiers[1] == 0 {
		t.Fatalf("removes by tier (near, far) = %v, want both", tiers)
	}
	t.Logf("removes by tier (near, far): %v", tiers)

	q = eventQueue{}
	for step := 0; step < 100_000; step++ {
		if q.Len() < farShift && rng.Intn(4) != 0 {
			push(50)
		} else if q.Len() > 0 {
			pop(step)
		}
		if q.far != nil {
			t.Fatalf("step %d: depth %d spilled into the far tier", step, q.Len())
		}
	}
}

// TestProcFitsItsSizeClass pins the footprint one simulated core pays:
// a Proc, deadline key included, stays in the 144-byte size class (a
// 10,000-core chip allocates one per core), its wait site is one label,
// and an event is 24 bytes.
func TestProcFitsItsSizeClass(t *testing.T) {
	p, w, e := unsafe.Sizeof(Proc{}), unsafe.Sizeof(WaitSite{}), unsafe.Sizeof(event{})
	if p > 144 || w != 16 || e != 24 {
		t.Fatalf("sizeof Proc = %d B (want <= 144), WaitSite = %d B (want 16), event = %d B (want 24)", p, w, e)
	}
}
