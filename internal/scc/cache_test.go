package scc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refLRU is the oracle for cacheLevel: a slice of resident lines, most
// recently used first, searched and shifted in full on every access.
type refLRU struct {
	capacity int
	lines    []int64
}

func (r *refLRU) lookup(line int64) bool {
	i := slices.Index(r.lines, line)
	if i < 0 {
		return false
	}
	r.lines = slices.Insert(slices.Delete(r.lines, i, i+1), 0, line)
	return true
}

func (r *refLRU) insert(line int64) (evicted int64, ok bool) {
	if r.lookup(line) {
		return 0, false
	}
	if len(r.lines) == r.capacity {
		evicted, ok = r.lines[len(r.lines)-1], true
		r.lines = r.lines[:len(r.lines)-1]
	}
	r.lines = slices.Insert(r.lines, 0, line)
	return evicted, ok
}

// slabNodes is the node storage a level must have cut once it has handed
// out k nodes: a cacheFirst-node first chunk, then cacheChunk-node ones.
func slabNodes(k int) int {
	if k == 0 {
		return 0
	}
	return cacheFirst + (k-cacheFirst+cacheChunk-1)/cacheChunk*cacheChunk
}

// TestCacheLevelMatchesReferenceLRU drives seeded random streams of
// lookups and inserts, with recycles interleaved, through cacheLevel and
// a naive slice-based LRU: every hit, miss and evicted line must agree.
// The capacities put the fill across the first chunk's end (slots 8/9)
// and the second's (72/73), with and without a line to spare, and every
// resident line must be found at the node that holds it. After a fill
// the level must hold exactly the node storage its peak residency needs
// in those quanta: a recycled level reuses its chunks before cutting one.
func TestCacheLevelMatchesReferenceLRU(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 8, 9, 64, 65, 512} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				c := &cacheLevel{capacity: capacity}
				ref := &refLRU{capacity: capacity}
				universe := int64(2*capacity + 3) // hits, misses and evictions all common
				peak := 0                         // most lines resident at once: the nodes the slabs must hold
				for op := range 8*capacity + 400 {
					line := rng.Int63n(universe)
					if rng.Intn(50) == 0 {
						line += 1 << 16 // grows the index table
					}
					switch r := rng.Intn(100); {
					case r == 0:
						*c = c.recycle()
						c.capacity = capacity
						ref.lines = ref.lines[:0]
						continue
					case r < 45:
						if got, want := c.lookup(line), ref.lookup(line); got != want {
							t.Fatalf("op %d: lookup(%d) = %v, reference %v", op, line, got, want)
						}
					default:
						ev, did := c.insert(line)
						wantEv, wantDid := ref.insert(line)
						if ev != wantEv || did != wantDid {
							t.Fatalf("op %d: insert(%d) evicted %d/%v, reference %d/%v", op, line, ev, did, wantEv, wantDid)
						}
					}
					peak = max(peak, len(ref.lines))
					if n := c.get(line); slices.Contains(ref.lines, line) != (n != nil) || n != nil && n.line != line {
						t.Fatalf("op %d: line %d resolves to %+v, reference resident %v", op, line, n, slices.Contains(ref.lines, line))
					}
					if c.used != len(ref.lines) {
						t.Fatalf("op %d: %d lines resident, reference %d", op, c.used, len(ref.lines))
					}
				}
				var lens []int
				cut := 0
				for _, s := range c.slabs {
					lens, cut = append(lens, len(s)), cut+len(s)
				}
				if cut != slabNodes(peak) || len(lens) > 0 && lens[0] != cacheFirst {
					t.Fatalf("%d lines resident at most, slabs of %v nodes; want %d nodes, the first chunk %d", peak, lens, slabNodes(peak), cacheFirst)
				}
			})
		}
	}
}
