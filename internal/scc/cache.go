package scc

// cacheLevel is a fully-associative LRU cache model over line numbers.
// The SCC's real L1 (16 KB) and L2 (256 KB, pseudo-LRU) are set
// associative; full associativity with true LRU is a standard simulator
// simplification that preserves the behaviour the paper relies on: the
// first access to a private-memory line goes off-chip, later accesses hit
// on-chip (Sec. IV-D).
//
// Residency is tracked by a direct-index table rather than a map: line
// numbers come from the core's bump allocator (line = addr / lineBytes),
// so they are small and dense, and a slice lookup allocates nothing
// while a Go map costs tens of allocations per level just to construct.
// The table holds one int32 per line of simulated footprint (1/8 of the
// footprint per level), which is small next to the backing store itself.
type cacheLevel struct {
	capacity int     // in lines
	idx      []int32 // line -> 1-based slab slot; 0 = not resident
	head     *cacheNode
	tail     *cacheNode
	used     int // resident lines

	// slabs back every node in chunks allocated on demand, so a core's
	// cache storage grows with the lines it actually touches, never with
	// the level's nominal capacity (a 256 KB L2 would otherwise pin 8192
	// node structs per core on a chip where most cores touch a handful
	// of lines). Chunks are cut at full length and handed out node by
	// node, so node pointers stay valid for the chunk's lifetime and a
	// recycled level (see recycle) refills the chunks it kept in place.
	slabs    [][]cacheNode
	nextSlot int // slot of the next node handed out, less one
}

// cacheChunk is the slab growth quantum in nodes: small enough that a
// barely-active core stays cheap, large enough that a hot core cuts a
// new chunk rarely. The first chunk is only cacheFirst nodes: at 10,000
// cores most levels touch a line or a few, and a full first chunk per
// level would be 20 MB of a fresh 100x100 chip. Slots keep the
// cacheChunk grid (1-8 in the first chunk, 65-128 in the second), so
// get stays one divide.
const (
	cacheFirst = 8
	cacheChunk = 64
)

type cacheNode struct {
	line       int64
	slot       int32 // 1-based grid index, stable for the node's lifetime
	prev, next *cacheNode
}

// get returns the resident node for line, or nil.
func (c *cacheLevel) get(line int64) *cacheNode {
	if line >= 0 && line < int64(len(c.idx)) {
		if s := c.idx[line]; s != 0 {
			return &c.slabs[(s-1)/cacheChunk][(s-1)%cacheChunk]
		}
	}
	return nil
}

// setIdx records line -> slot, growing the direct-index table on demand.
func (c *cacheLevel) setIdx(line int64, slot int32) {
	if line >= int64(len(c.idx)) {
		// Grow 4x: the table is cheap (4 B/line) and footprints are
		// usually reached within a few allocations, so aggressive growth
		// keeps the copy chain short.
		n := 4 * len(c.idx)
		if n < cacheChunk {
			n = cacheChunk
		}
		for int64(n) <= line {
			n *= 4
		}
		grown := make([]int32, n)
		copy(grown, c.idx)
		c.idx = grown
	}
	c.idx[line] = slot
}

// newNode hands out node storage from the chunked slabs, cutting a new
// chunk only when the current one is used up.
func (c *cacheLevel) newNode(line int64) *cacheNode {
	s := c.nextSlot
	if s/cacheChunk == len(c.slabs) { // s is 0 for the first chunk
		c.slabs = append(c.slabs, make([]cacheNode, min(cacheFirst+s, cacheChunk)))
	}
	if c.nextSlot++; c.nextSlot == cacheFirst {
		c.nextSlot = cacheChunk
	}
	n := &c.slabs[s/cacheChunk][s%cacheChunk]
	*n = cacheNode{line: line, slot: int32(s + 1)}
	return n
}

// lookup probes the cache; on hit the line becomes most recently used.
func (c *cacheLevel) lookup(line int64) bool {
	n := c.get(line)
	if n == nil {
		return false
	}
	c.moveToFront(n)
	return true
}

// insert fills a line, evicting the LRU entry if needed. Returns the
// evicted line number and true if an eviction happened.
//
// When the cache is full, the victim's node is recycled for the new
// line, so a warmed-up cache inserts without allocating — this is the
// simulator's single hottest allocation site otherwise (every private-
// memory miss of every core).
func (c *cacheLevel) insert(line int64) (evicted int64, ok bool) {
	if n := c.get(line); n != nil {
		c.moveToFront(n)
		return 0, false
	}
	if c.used >= c.capacity && c.tail != nil {
		victim := c.tail
		c.unlink(victim)
		c.idx[victim.line] = 0
		evicted = victim.line
		victim.line = line
		c.setIdx(line, victim.slot)
		c.pushFront(victim)
		return evicted, true
	}
	n := c.newNode(line)
	c.setIdx(line, n.slot)
	c.pushFront(n)
	c.used++
	return 0, false
}

// recycle empties the cache and returns its storage for the next chip
// (see arena.go): the index table, zeroed again by walking the resident
// lines only (at most capacity of them, whatever the footprint was), and
// the node chunks, which newNode overwrites as it hands them out.
func (c *cacheLevel) recycle() cacheLevel {
	for n := c.head; n != nil; n = n.next {
		c.idx[n.line] = 0
	}
	return cacheLevel{idx: c.idx, slabs: c.slabs}
}

func (c *cacheLevel) pushFront(n *cacheNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *cacheLevel) unlink(n *cacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *cacheLevel) moveToFront(n *cacheNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
