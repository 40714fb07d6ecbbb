package scc

import (
	"bytes"
	"testing"

	"scc/internal/timing"
)

// pooledKits reports how many kits are parked.
func pooledKits() int {
	chipPool.Lock()
	defer chipPool.Unlock()
	return len(chipPool.kits)
}

// dirtyEverything is program A of TestDirtyMemoryReadsZero: it writes 0xFF
// over all the private memory it allocates (enough lines to fill L1 and
// spill into L2), reads it back so both cache levels own lines, and
// writes a page of its own MPB and a flag byte in its neighbour's.
func dirtyEverything(c *Core) {
	const n = 96 << 10
	a := c.Alloc(n)
	priv := c.PrivBytes(a, n)
	for i := range priv {
		priv[i] = 0xFF
	}
	c.TouchWrite(a, n)
	c.TouchRead(a, n)
	c.MPBWrite(c.Chip().MPBBase(c.ID), bytes.Repeat([]byte{0xFF}, 4096))
	c.SetFlag(c.Chip().MPBBase((c.ID+1)%c.Chip().NumCores())+5000, 0xFF)
}

// TestDirtyMemoryReadsZero: a chip built on a kit whose last chip wrote
// 0xFF everywhere sees what a fresh chip sees — zero private memory from
// Alloc (also beyond what the last chip allocated), cold caches (the
// first read of a line is priced as a DRAM access, the second as an L1
// hit), and zero MPB.
func TestDirtyMemoryReadsZero(t *testing.T) {
	DrainChipPool()
	defer DrainChipPool()
	model := timing.Default()

	a := New(model)
	a.Launch(dirtyEverything)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	a.Release()
	if got := pooledKits(); got != 1 {
		t.Fatalf("%d kits parked after one Release, want 1", got)
	}

	b := New(model)
	if got := pooledKits(); got != 0 {
		t.Fatalf("%d kits parked after the adopting New, want 0", got)
	}
	if cap(b.Cores[0].priv) == 0 {
		t.Fatal("the second chip did not adopt the first one's private memory")
	}
	const n = 128 << 10 // beyond A's 96 KB: the tail comes from the slab's spare capacity or a fresh one
	b.Launch(func(c *Core) {
		addr := c.Alloc(n)
		if addr != 0 {
			t.Errorf("core %d: first Alloc at %d, want 0", c.ID, addr)
		}
		for i, v := range c.PrivBytes(addr, n) {
			if v != 0 {
				t.Errorf("core %d: fresh private byte %d reads %#x", c.ID, i, v)
				break
			}
		}
		t0 := c.Now()
		c.ReadF64(addr)
		t1 := c.Now()
		c.ReadF64(addr)
		t2 := c.Now()
		if miss, hit := t1-t0, t2-t1; miss != model.DRAMAccess(int(c.memHops)) || hit != model.L1Hit() {
			t.Errorf("core %d: first read costs %d ticks, second %d; want a DRAM access (%d) and an L1 hit (%d)",
				c.ID, miss, hit, model.DRAMAccess(int(c.memHops)), model.L1Hit())
		}
		page := make([]byte, 8192)
		for i := range page {
			page[i] = 1
		}
		base := c.Chip().MPBBase(c.ID)
		c.MPBRead(base, page)
		if !bytes.Equal(page, make([]byte, 8192)) {
			t.Errorf("core %d: unwritten MPB reads non-zero", c.ID)
		}
		if c.ID == 0 && (b.mpb.nPages != 0 || b.mpb.nLeaves != 0) {
			t.Errorf("reading unwritten MPB cut %d pages and %d leaves", b.mpb.nPages, b.mpb.nLeaves)
		}
		// Cutting a page A dirtied must not bring A's bytes back with it.
		c.SetFlag(base+7, 1)
		c.MPBRead(base, page)
		if want := append(append(make([]byte, 7), 1), make([]byte, 8184)...); !bytes.Equal(page, want) {
			t.Errorf("core %d: a one-byte write into a fresh MPB page reads back more than the byte", c.ID)
		}
	})
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestOutgrownSlabLeavesThePool: a chip that outgrows the slab it adopted
// parks the slab it grew, and the small one is referenced from nowhere —
// not from the kit it came in (which travels with the chip), not from
// the pool.
func TestOutgrownSlabLeavesThePool(t *testing.T) {
	DrainChipPool()
	defer DrainChipPool()
	run := func(n int) {
		chip := New(timing.Default())
		if k := chip.kit; k.cores[0].priv != nil || k.cores[0].l1.idx != nil {
			t.Error("the kit of a live chip still references core storage")
		}
		chip.Launch(func(c *Core) { c.WriteF64(c.Alloc(n)+Addr(n-8), 1) })
		if err := chip.Run(); err != nil {
			t.Fatal(err)
		}
		chip.Release()
	}
	run(1 << 10)
	small := cap(chipPool.kits[0].cores[0].priv)
	run(64 << 10)
	if got := pooledKits(); got != 1 {
		t.Fatalf("%d kits parked, want the one that was adopted and grown", got)
	}
	if grown := cap(chipPool.kits[0].cores[0].priv); grown < 64<<10 || small >= 64<<10 {
		t.Errorf("parked slab holds %d bytes after a 64 KB program (the adopted one held %d)", grown, small)
	}
	run(1 << 10) // into the big slab: no growth, same slab back
	if got := cap(chipPool.kits[0].cores[0].priv); got < 64<<10 {
		t.Errorf("a small program shrank the parked slab to %d bytes", got)
	}
}

// TestMismatchedKitIsDropped: a kit of another geometry is neither
// adopted nor left in the pool.
func TestMismatchedKitIsDropped(t *testing.T) {
	DrainChipPool()
	defer DrainChipPool()
	New(timing.Topology(4, 4, 1)).Release()
	chip := New(timing.Default())
	if got := pooledKits(); got != 0 {
		t.Errorf("%d kits parked after a mismatched New, want 0", got)
	}
	if n := len(chip.kit.cores); n != chip.NumCores() {
		t.Errorf("a %d-core chip runs on a %d-core kit", chip.NumCores(), n)
	}
}

// TestChipPoolIsBounded: releasing more chips than the bound parks the
// bound.
func TestChipPoolIsBounded(t *testing.T) {
	DrainChipPool()
	chips := make([]*Chip, chipPoolCap+3)
	for i := range chips {
		chips[i] = New(timing.Topology(2, 2, 1))
	}
	for _, c := range chips {
		c.Release()
	}
	if got := DrainChipPool(); got != chipPoolCap {
		t.Errorf("%d kits parked, bound %d", got, chipPoolCap)
	}
}

// TestUseAfterReleasePanics: a released chip has no cores, so Launch
// would spawn nothing and Run would report a success that simulated
// nothing. All four entry points refuse with one message instead; a
// second Release is a no-op and parks nothing twice.
func TestUseAfterReleasePanics(t *testing.T) {
	DrainChipPool()
	defer DrainChipPool()
	chip := New(timing.Default())
	core := chip.Cores[3]
	chip.Release()
	chip.Release()
	if got := pooledKits(); got != 1 {
		t.Errorf("%d kits parked after releasing one chip twice, want 1", got)
	}
	for name, use := range map[string]func(){
		"Launch":    func() { chip.Launch(func(*Core) {}) },
		"LaunchOne": func() { chip.LaunchOne(0, func(*Core) {}) },
		"Run":       func() { chip.Run() },
		"Alloc":     func() { core.Alloc(8) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "scc: chip used after Release" {
					t.Errorf("%s on a released chip: recovered %v", name, r)
				}
			}()
			use()
		}()
	}
}

// TestReleaseAfterFailedRun: processes the engine killed while parked on
// a flag leave nothing behind that reaches the next chip — the released
// cores hold no storage, and the next chip's waits start from empty
// parked lists.
func TestReleaseAfterFailedRun(t *testing.T) {
	DrainChipPool()
	defer DrainChipPool()
	a := New(timing.Default())
	a.Launch(func(c *Core) {
		c.MPBWriteF64s(a.MPBBase(c.ID), []float64{1, 2, 3})
		c.WaitFlag(a.MPBBase(c.ID)+100, 1) // nobody sets it
	})
	if err := a.Run(); err == nil {
		t.Fatal("a chip of cores all waiting on unset flags ran to completion")
	}
	stale := a.Cores[7]
	a.Release()
	if stale.watch != nil || stale.xferBuf != nil || stale.priv != nil || stale.proc != nil {
		t.Errorf("a released core keeps watch=%v xferBuf=%v priv=%v proc=%v", stale.watch, stale.xferBuf, stale.priv, stale.proc)
	}
	b := New(timing.Default())
	for owner, list := range b.parked {
		if len(list) != 0 {
			t.Fatalf("core %d of the next chip starts with %d parked waiters", owner, len(list))
		}
	}
	b.Launch(func(c *Core) {
		next := (c.ID + 1) % b.NumCores()
		c.SetFlag(b.MPBBase(next)+100, 1)
		c.WaitFlag(b.MPBBase(c.ID)+100, 1)
	})
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestScratchSlotsComeBackWithTheKit: the host scratch every layer stages
// through is kit storage. The next chip's core hands back the backing
// arrays the released chip's core grew, for any size up to what they
// hold, and grows a slot only when asked for more.
func TestScratchSlotsComeBackWithTheKit(t *testing.T) {
	DrainChipPool()
	defer DrainChipPool()
	model := timing.Default()
	const n = 552

	a := New(model)
	var arrays [2]*float64
	for slot := range arrays {
		arrays[slot] = &a.Cores[3].ScratchF64(slot, n)[0]
	}
	if &a.Cores[3].ScratchF64(0, n/2)[0] != arrays[0] {
		t.Fatal("a smaller request on the same chip reallocated slot 0")
	}
	a.Release()

	b := New(model)
	defer b.Release()
	c := b.Cores[3]
	for slot, want := range arrays {
		v := c.ScratchF64(slot, 7)
		if len(v) != 7 || cap(v) < n {
			t.Errorf("slot %d of the next chip: len %d cap %d, want len 7 cap ≥ %d", slot, len(v), cap(v), n)
		}
		if &v[0] != want {
			t.Errorf("slot %d of the next chip is a new array, not the released chip's", slot)
		}
	}
	if &c.ScratchF64(0, n)[0] != arrays[0] {
		t.Error("the released chip's full size reallocated slot 0")
	}
	grown := c.ScratchF64(1, 2*n)
	if len(grown) != 2*n || &grown[0] == arrays[1] {
		t.Errorf("slot 1 asked for %d doubles: len %d, same array %v", 2*n, len(grown), &grown[0] == arrays[1])
	}
	if &c.ScratchF64(1, n)[0] != &grown[0] {
		t.Error("slot 1 shrank back to its old array after growing")
	}
	if &b.Cores[4].ScratchF64(0, n)[0] == arrays[0] {
		t.Error("two cores share a scratch array")
	}
}
