package scc

import (
	"runtime"
	"sync"

	"scc/internal/timing"
)

// This file gives chip host storage an end of life and a second life
// (DESIGN.md §13 "Chip storage lifetime"). A sweep builds a chip per cell,
// uses a fraction of its private memories and cache tables and drops it:
// 97 % of a Fig. 9 pass's allocation before kits were recycled. The kit
// is also the only home of per-core host scratch: the transport stages
// straight between private memory and the MPB, and every layer above
// takes its staging vectors from Core.ScratchF64. Chip.Release parks the
// storage on a process-global free list and NewOnEngine adopts it, as
// simtime's pool does for coroutines. Nothing a simulated program can
// observe moves: addresses come from Core.brk alone, and a kit is parked
// with everything its chip wrote zeroed again.

// coreStore is the host storage of one core that outlives its chip.
type coreStore struct {
	priv   []byte // private memory up to Core.brk; zero from there to its capacity
	l1, l2 cacheLevel

	// Steady-state scratch, so the protocol hot path allocates nothing per
	// message. Reuse is safe within a chip because a core is one simulated
	// process (no two of its MPB operations are ever in flight at once),
	// across chips because every use overwrites the length it asks for.
	xferBuf, faultBuf []byte       // MPBWriteF64s/MPBReadF64s staging; MPBWrite's copy for the fault hook
	vec               [2][]float64 // ScratchF64's slots
}

// kit is the recyclable storage of one chip. It fits a model with the same
// core count and MPB size; cache levels take the adopting model's capacity.
type kit struct {
	cores  []coreStore
	mpb    *mpbArena
	parked [][]int32
}

// chipPool parks at most chipPoolCap kits. A kit keeps its slabs at their
// grown size (~1 MB per core after an Alltoall cell), so the bound is
// what keeps a long sweep's resident set flat.
var chipPool struct {
	sync.Mutex
	kits []*kit
}
var chipPoolCap = 2 * runtime.GOMAXPROCS(0)

// adoptKit returns the most recently parked kit, or a new one. A parked
// kit that does not fit m is dropped to the collector, so a sweep that
// changes topology does not carry the old one's slabs along.
func adoptKit(m *timing.Model) *kit {
	n := m.NumCores()
	chipPool.Lock()
	defer chipPool.Unlock()
	if last := len(chipPool.kits) - 1; last >= 0 {
		k := chipPool.kits[last]
		chipPool.kits[last] = nil
		chipPool.kits = chipPool.kits[:last]
		if len(k.cores) == n && k.mpb.perCore == m.MPBBytesPerCore {
			return k
		}
	}
	return &kit{cores: make([]coreStore, n), mpb: newMPBArena(n, m.MPBBytesPerCore), parked: make([][]int32, n)}
}

// Release ends the chip's life: its host storage is zeroed where the run
// wrote it and parked for the next chip NewOnEngine builds. Call it once
// the run is over (failed runs included); using the chip afterwards
// panics, a second Release does nothing. Cores are emptied too, so no
// stale *Core keeps a pointer into a slab the next chip writes.
func (c *Chip) Release() {
	k := c.kit
	if k == nil {
		return
	}
	for id, core := range c.Cores {
		clear(core.priv) // as long as brk went, and writes land below brk
		core.priv, core.l1, core.l2 = core.priv[:0], core.l1.recycle(), core.l2.recycle()
		k.cores[id] = core.coreStore
		*core = Core{ID: id, chip: c}
		k.parked[id] = k.parked[id][:0]
	}
	k.mpb.recycle()
	c.kit, c.Cores, c.mpb, c.parked = nil, nil, nil, nil
	chipPool.Lock()
	defer chipPool.Unlock()
	if len(chipPool.kits) < chipPoolCap {
		chipPool.kits = append(chipPool.kits, k)
	}
}

// mustLive panics on a released chip, whose zero cores would otherwise
// make Launch spawn nothing and Run report success.
func (c *Chip) mustLive() {
	if c.kit == nil {
		panic("scc: chip used after Release")
	}
}

// DrainChipPool drops every parked kit to the collector and returns how
// many there were; bench.MeasureFootprint reads a heap that must not hold them.
func DrainChipPool() int {
	chipPool.Lock()
	defer chipPool.Unlock()
	n := len(chipPool.kits)
	chipPool.kits = nil
	return n
}
