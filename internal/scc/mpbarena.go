package scc

// mpbArena stores the chip-wide MPB SRAM sparsely. The dense
// representation it replaces — one flat byte slice of
// NumCores x MPBBytesPerCore — is fine for the paper's 48-core chip
// (384 KB) but scales quadratically with the core count, because the
// per-core MPB itself grows with NumCores (every core reserves a 32-byte
// flag line for every potential writer). A 100x100-core mesh needs
// 336 KB of MPB per core, 3.4 GB for the chip, of which a real
// collective touches a vanishing fraction: a core's flag traffic lands
// in the few writer lines of its actual communication partners plus its
// chunk-staging area.
//
// The arena therefore pages each core's MPB region: fixed-size pages cut
// on first write and found through a two-level directory. Reads of
// never-written bytes return zero without allocating — the dense slice's
// all-zeroes initial state — so a blocked waiter polling a flag nobody
// has set yet costs no memory. Contents and out-of-range behavior are
// bit-identical to the dense slice, so virtual time and all golden
// digests are unaffected.
//
// The directory holds 1-based indices (0 = untouched), not pointers: a
// 100x100 chip has 656 pages per core and touches a few, and a slice
// header per page would be scanned by every GC cycle. A core costs
// dirLen entries up front (44 B at 100x100), each naming a leaf of
// mpbLeaf page slots cut on the first write into its span; a slot names
// a page of the chip-wide store. Leaves and pages both live in fixed
// chunks of mpbChunk that are cut on demand and never copied, so the
// arena costs what the run touched: a 100x100 Barrier + Broadcast cuts
// 14,625 leaves (3.7 MB) and 16,248 pages (8.3 MB), where a leaf slice
// grown by append would re-copy itself to about 19 MB on the way.
type mpbArena struct {
	perCore int // MPBBytesPerCore
	dirLen  int // directory entries per core: ceil(pages per core / mpbLeaf)
	total   int // NumCores * perCore: the addressable extent (the dense slice's len)

	dir     []int32                     // core*dirLen + page/mpbLeaf -> leaf
	leaves  []*[mpbChunk][mpbLeaf]int32 // leaf, page%mpbLeaf -> page, mpbChunk leaves to a chunk
	store   [][]byte                    // pages, mpbChunk to a chunk
	nLeaves int                         // leaves handed out
	nPages  int                         // pages handed out
}

// mpbPageSize is the write granularity of the arena: 512 B spans 16
// writers' flag lines, so a flag set by one writer cuts a page that
// holds a few flag bytes rather than the 4 KB of flag lines around it.
// The store grows mpbChunk pages (64 KB) at a time, the leaves mpbChunk
// leaves (32 KB): a chunk per page is a pointer per page again, one flat
// store a copy per growth. A recycled arena keeps its chunks.
const (
	mpbPageSize = 512
	mpbLeaf     = 64
	mpbChunk    = 128
)

func newMPBArena(numCores, perCore int) *mpbArena {
	pages := (perCore + mpbPageSize - 1) / mpbPageSize
	dirLen := (pages + mpbLeaf - 1) / mpbLeaf
	return &mpbArena{perCore: perCore, dirLen: dirLen, total: numCores * perCore, dir: make([]int32, numCores*dirLen)}
}

// slot returns the 1-based store index of core's pg-th page, or 0 if the
// page was never written. (Page numbers and offsets are unsigned here so
// that / and % by the constants compile to one shift or mask each.)
func (a *mpbArena) slot(core int, pg uint) uint {
	if l := uint(a.dir[core*a.dirLen+int(pg/mpbLeaf)]); l != 0 {
		return uint(a.leaves[(l-1)/mpbChunk][(l-1)%mpbChunk][pg%mpbLeaf])
	}
	return 0
}

// pageAt returns the page with store index p, from byte po on.
func (a *mpbArena) pageAt(p, po uint) []byte {
	o := (p - 1) % mpbChunk * mpbPageSize
	return a.store[(p-1)/mpbChunk][o+po : o+mpbPageSize]
}

// byteAt reads the byte at off, which lies in core's region (the callers
// have the owner at hand; finding it again is a division on the flag
// path). Untouched storage reads as zero.
func (a *mpbArena) byteAt(core, off int) byte {
	rem := uint(off - core*a.perCore)
	if p := a.slot(core, rem/mpbPageSize); p != 0 {
		return a.pageAt(p, rem%mpbPageSize)[0]
	}
	return 0
}

// setByte writes the byte at off in core's region, allocating its page
// on first touch.
func (a *mpbArena) setByte(core, off int, v byte) {
	rem := uint(off - core*a.perCore)
	p := a.slot(core, rem/mpbPageSize)
	if p == 0 {
		p = a.cut(core, rem/mpbPageSize)
	}
	a.pageAt(p, rem%mpbPageSize)[0] = v
}

// cut hands out core's pg-th page, and the leaf naming it if pg is the
// first page written in the leaf's span. Out of line: it runs once per
// page, and inlined it crowds the per-byte paths (+1.5 ns a SetFlag).
//
//go:noinline
func (a *mpbArena) cut(core int, pg uint) uint {
	l := &a.dir[core*a.dirLen+int(pg/mpbLeaf)]
	if *l == 0 {
		if a.nLeaves == len(a.leaves)*mpbChunk {
			a.leaves = append(a.leaves, new([mpbChunk][mpbLeaf]int32))
		}
		a.nLeaves++
		*l = int32(a.nLeaves)
	}
	if a.nPages == len(a.store)*mpbChunk {
		a.store = append(a.store, make([]byte, mpbChunk*mpbPageSize))
	}
	a.nPages++
	a.leaves[(*l-1)/mpbChunk][(*l-1)%mpbChunk][pg%mpbLeaf] = int32(a.nPages)
	return uint(a.nPages)
}

// recycle zeroes what the arena's chip wrote and keeps the storage for
// the next chip of the same geometry (see arena.go).
func (a *mpbArena) recycle() {
	clear(a.dir)
	for _, chunk := range a.leaves[:(a.nLeaves+mpbChunk-1)/mpbChunk] {
		clear(chunk[:])
	}
	for _, chunk := range a.store[:(a.nPages+mpbChunk-1)/mpbChunk] {
		clear(chunk)
	}
	a.nLeaves, a.nPages = 0, 0
}

// read copies [off, off+len(dst)), which starts in core's region, into
// dst. Untouched ranges read as zeroes without allocating pages.
func (a *mpbArena) read(core, off int, dst []byte) {
	for rem := uint(off - core*a.perCore); len(dst) > 0; core, rem = core+1, 0 {
		for rem < uint(a.perCore) && len(dst) > 0 {
			po := rem % mpbPageSize
			chunk := a.chunkLen(rem, po, len(dst))
			if p := a.slot(core, rem/mpbPageSize); p == 0 {
				clear(dst[:chunk])
			} else {
				copy(dst[:chunk], a.pageAt(p, po))
			}
			dst, rem = dst[chunk:], rem+chunk
		}
	}
}

// write copies src into [off, off+len(src)), which starts in core's
// region, allocating pages on demand.
func (a *mpbArena) write(core, off int, src []byte) {
	for rem := uint(off - core*a.perCore); len(src) > 0; core, rem = core+1, 0 {
		for rem < uint(a.perCore) && len(src) > 0 {
			po := rem % mpbPageSize
			chunk := a.chunkLen(rem, po, len(src))
			p := a.slot(core, rem/mpbPageSize)
			if p == 0 {
				p = a.cut(core, rem/mpbPageSize)
			}
			copy(a.pageAt(p, po), src[:chunk])
			src, rem = src[chunk:], rem+chunk
		}
	}
}

// chunkLen bounds one copy step: it may not cross the page end, the
// core-region end (the last page of a region may have slack that
// belongs to no address), or the remaining request.
func (a *mpbArena) chunkLen(rem, po uint, want int) uint {
	return min(mpbPageSize-po, uint(a.perCore)-rem, uint(want))
}
