package scc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"scc/internal/mesh"
	"scc/internal/simtime"
	"scc/internal/timing"
)

func TestChipGeometry(t *testing.T) {
	c := New(timing.Default())
	if c.NumCores() != 48 {
		t.Fatalf("NumCores = %d, want 48", c.NumCores())
	}
	// Cores 0 and 1 share tile (0,0); cores 46,47 share tile (5,3).
	if c.TileOf(0) != (mesh.Coord{X: 0, Y: 0}) || c.TileOf(1) != (mesh.Coord{X: 0, Y: 0}) {
		t.Fatalf("tile of cores 0/1 = %v/%v, want (0,0)", c.TileOf(0), c.TileOf(1))
	}
	if c.TileOf(47) != (mesh.Coord{X: 5, Y: 3}) {
		t.Fatalf("tile of core 47 = %v, want (5,3)", c.TileOf(47))
	}
	// Tiles are row-major: core 12 -> tile 6 -> (0,1).
	if c.TileOf(12) != (mesh.Coord{X: 0, Y: 1}) {
		t.Fatalf("tile of core 12 = %v, want (0,1)", c.TileOf(12))
	}
	if got := c.Model.MPBTotalBytes(); got != 384*1024 {
		t.Fatalf("total MPB = %d, want 384 KB", got)
	}
}

func TestMPBOwnerMapping(t *testing.T) {
	c := New(timing.Default())
	for core := 0; core < 48; core++ {
		base := c.MPBBase(core)
		if c.MPBOwner(base) != core || c.MPBOwner(base+8191) != core {
			t.Fatalf("owner mapping broken for core %d", core)
		}
	}
}

func TestMemControllerQuadrants(t *testing.T) {
	c := New(timing.Default())
	// Core 0 at (0,0) -> controller (0,0); core 47 at (5,3) -> (5,3).
	if mc := c.memControllerFor(0); mc != (mesh.Coord{X: 0, Y: 0}) {
		t.Fatalf("controller for core 0 = %v", mc)
	}
	if mc := c.memControllerFor(47); mc != (mesh.Coord{X: 5, Y: 3}) {
		t.Fatalf("controller for core 47 = %v", mc)
	}
}

func TestPrivateMemoryRoundTrip(t *testing.T) {
	c := New(timing.Default())
	rng := rand.New(rand.NewSource(1))
	want := make([]float64, 301)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	var got []float64
	c.LaunchOne(3, func(core *Core) {
		a := core.AllocF64(len(want))
		core.WriteF64s(a, want)
		got = make([]float64, len(want))
		core.ReadF64s(a, got)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestCacheMakesSecondReadCheaper(t *testing.T) {
	c := New(timing.Default())
	var first, second simtime.Duration
	c.LaunchOne(0, func(core *Core) {
		a := core.AllocF64(64)
		t0 := core.Now()
		buf := make([]float64, 64)
		core.ReadF64s(a, buf) // cold: every line goes off-chip
		first = core.Now() - t0
		t1 := core.Now()
		core.ReadF64s(a, buf) // warm: L1 hits
		second = core.Now() - t1
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if second*10 > first {
		t.Fatalf("cache ineffective: cold=%v warm=%v", first, second)
	}
}

func TestAllocIsLineAligned(t *testing.T) {
	c := New(timing.Default())
	c.LaunchOne(0, func(core *Core) {
		a := core.Alloc(5)
		b := core.Alloc(1)
		if int(a)%32 != 0 || int(b)%32 != 0 {
			t.Errorf("allocations not line aligned: %d %d", a, b)
		}
		if b <= a {
			t.Errorf("allocations overlap: %d then %d", a, b)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMPBWriteReadAcrossCores(t *testing.T) {
	c := New(timing.Default())
	payload := []float64{3.5, -1.25, 1e9, 0.0, -0.5}
	dst := c.MPBBase(40) + 256
	flag := c.MPBBase(40) // line 0 of core 40's MPB as flag
	var got []float64
	c.LaunchOne(2, func(core *Core) {
		core.MPBWriteF64s(dst, payload)
		core.SetFlag(flag, 1)
	})
	c.LaunchOne(40, func(core *Core) {
		core.WaitFlag(flag, 1)
		got = make([]float64, len(payload))
		core.MPBReadF64s(dst, got)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("MPB payload corrupted at %d: %v != %v", i, got[i], payload[i])
		}
	}
}

func TestWaitFlagRecordsWaitTime(t *testing.T) {
	c := New(timing.Default())
	flag := c.MPBBase(1)
	delay := simtime.Microseconds(50)
	var prof Profile
	c.LaunchOne(0, func(core *Core) {
		core.Compute(delay)
		core.SetFlag(flag, 7)
	})
	c.LaunchOne(1, func(core *Core) {
		core.WaitFlag(flag, 7)
		prof = core.Prof()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if prof.FlagWaits != 1 {
		t.Fatalf("FlagWaits = %d, want 1", prof.FlagWaits)
	}
	if prof.FlagWait < delay*8/10 || prof.FlagWait > delay+simtime.Microseconds(5) {
		t.Fatalf("FlagWait = %v, want about %v", prof.FlagWait, delay)
	}
}

func TestWaitFlagAlreadySetDoesNotBlock(t *testing.T) {
	c := New(timing.Default())
	flag := c.MPBBase(5) + 32
	c.LaunchOne(5, func(core *Core) {
		core.SetFlag(flag, 3)
		core.WaitFlag(flag, 3)
		if core.Prof().FlagWaits != 0 {
			t.Errorf("blocked on an already-set flag")
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalMPBBugWorkaroundCost(t *testing.T) {
	// With the erratum workaround, a local MPB line access costs
	// 45 core cycles + 8 mesh cycles; with the bug fixed, 15 core cycles.
	buggy := timing.Default()
	fixed := timing.Default()
	fixed.HardwareBugFixed = true

	lat := func(m *timing.Model) simtime.Duration {
		c := New(m)
		var d simtime.Duration
		c.LaunchOne(0, func(core *Core) {
			t0 := core.Now()
			buf := make([]byte, 32)
			core.MPBRead(c.MPBBase(0), buf)
			d = core.Now() - t0
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	lb, lf := lat(buggy), lat(fixed)
	if lb != simtime.CoreCycles(45)+simtime.MeshCycles(8) {
		t.Fatalf("buggy local MPB access = %v, want 45cc+8mc", lb)
	}
	if lf != simtime.CoreCycles(15) {
		t.Fatalf("fixed local MPB access = %v, want 15cc", lf)
	}
}

func TestRemoteMPBCostGrowsWithDistance(t *testing.T) {
	c := New(timing.Default())
	var near, far simtime.Duration
	c.LaunchOne(0, func(core *Core) {
		buf := make([]byte, 32)
		t0 := core.Now()
		core.MPBRead(c.MPBBase(2), buf) // tile (1,0): 1 hop
		near = core.Now() - t0
		t1 := core.Now()
		core.MPBRead(c.MPBBase(47), buf) // tile (5,3): 8 hops
		far = core.Now() - t1
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if far <= near {
		t.Fatalf("remote MPB cost not distance-sensitive: near=%v far=%v", near, far)
	}
}

func TestPartialLineStillCostsFullLine(t *testing.T) {
	c := New(timing.Default())
	var one, full simtime.Duration
	c.LaunchOne(0, func(core *Core) {
		t0 := core.Now()
		core.MPBWrite(c.MPBBase(4), make([]byte, 1))
		one = core.Now() - t0
		t1 := core.Now()
		core.MPBWrite(c.MPBBase(4), make([]byte, 32))
		full = core.Now() - t1
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if one != full {
		t.Fatalf("1-byte write (%v) should cost one full line (%v)", one, full)
	}
}

func TestReduceMPBToMPB(t *testing.T) {
	c := New(timing.Default())
	n := 12
	src := c.MPBBase(10) + 128
	dst := c.MPBBase(11) + 128
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
		b[i] = 100 * float64(i)
	}
	var got []float64
	c.LaunchOne(10, func(core *Core) {
		core.MPBWriteF64s(src, a)
		core.SetFlag(c.MPBBase(10), 1)
	})
	c.LaunchOne(11, func(core *Core) {
		priv := core.AllocF64(n)
		core.WriteF64s(priv, b)
		core.WaitFlag(c.MPBBase(10), 1)
		core.ReduceMPBToMPB(src, priv, dst, n, func(x, y float64) float64 { return x + y })
		got = make([]float64, n)
		core.MPBReadF64s(dst, got)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != a[i]+b[i] {
			t.Fatalf("reduce wrong at %d: %v != %v", i, got[i], a[i]+b[i])
		}
	}
}

func TestMPBOutOfRangePanicsViaEngine(t *testing.T) {
	c := New(timing.Default())
	c.LaunchOne(0, func(core *Core) {
		core.MPBWrite(c.Model.MPBTotalBytes()-4, make([]byte, 8))
	})
	if err := c.Run(); err == nil {
		t.Fatal("expected out-of-range MPB write to fail the simulation")
	}
}

func TestDeterministicLatencies(t *testing.T) {
	run := func() simtime.Time {
		c := New(timing.Default())
		flag := c.MPBBase(9)
		c.LaunchOne(0, func(core *Core) {
			core.MPBWriteF64s(c.MPBBase(9)+64, make([]float64, 100))
			core.SetFlag(flag, 1)
		})
		c.LaunchOne(9, func(core *Core) {
			core.WaitFlag(flag, 1)
			buf := make([]float64, 100)
			core.MPBReadF64s(c.MPBBase(9)+64, buf)
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.Now()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("non-deterministic end time: %v vs %v", got, first)
		}
	}
}

// Property: private memory is a faithful store - random writes followed by
// reads return exactly what was written, regardless of interleaving.
func TestPrivateMemoryFidelityProperty(t *testing.T) {
	f := func(vals []float64, seed int64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 256 {
			vals = vals[:256]
		}
		c := New(timing.Default())
		ok := true
		c.LaunchOne(int(uint64(seed)%48), func(core *Core) {
			a := core.AllocF64(len(vals))
			core.WriteF64s(a, vals)
			got := make([]float64, len(vals))
			core.ReadF64s(a, got)
			for i := range vals {
				// NaN-safe bitwise comparison.
				if f64bits(got[i]) != f64bits(vals[i]) {
					ok = false
				}
			}
		})
		if err := c.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	cl := &cacheLevel{capacity: 2}
	cl.insert(1)
	cl.insert(2)
	if ev, did := cl.insert(3); !did || ev != 1 {
		t.Fatalf("expected eviction of line 1, got %d/%v", ev, did)
	}
	if !cl.lookup(2) || !cl.lookup(3) || cl.lookup(1) {
		t.Fatal("LRU state wrong after eviction")
	}
	// Touch 2 to make 3 the LRU; inserting 4 must evict 3.
	cl.lookup(2)
	if ev, did := cl.insert(4); !did || ev != 3 {
		t.Fatalf("expected eviction of line 3, got %d/%v", ev, did)
	}
	// A recycled level is empty, on the storage of the old one.
	re := cl.recycle()
	re.capacity = 2
	if re.lookup(2) || re.lookup(4) || re.used != 0 || len(re.slabs) != len(cl.slabs) {
		t.Fatal("recycled level is not empty on the kept storage")
	}
	if ev, did := re.insert(4); did || !re.lookup(4) {
		t.Fatalf("insert into a recycled level evicted %d", ev)
	}
}

func TestWaitFlagAnyReturnsFirstMatch(t *testing.T) {
	c := New(timing.Default())
	f1 := c.MPBBase(10)
	f2 := c.MPBBase(11)
	var idx int
	c.LaunchOne(0, func(core *Core) {
		idx = core.WaitFlagAny([]int{f1, f2}, 1)
	})
	c.LaunchOne(5, func(core *Core) {
		core.Compute(simtime.Microseconds(30))
		core.SetFlag(f2, 1)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("WaitFlagAny returned %d, want 1 (the second flag)", idx)
	}
}

func TestWaitFlagAnyAlreadySet(t *testing.T) {
	c := New(timing.Default())
	f1 := c.MPBBase(1)
	f2 := c.MPBBase(2)
	c.LaunchOne(0, func(core *Core) {
		core.SetFlag(f1, 1)
		if idx := core.WaitFlagAny([]int{f1, f2}, 1); idx != 0 {
			t.Errorf("idx = %d, want 0", idx)
		}
		if core.Prof().FlagWaits != 0 {
			t.Error("blocked despite an already-set flag")
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitFlagAnyEmptyPanics(t *testing.T) {
	c := New(timing.Default())
	c.LaunchOne(0, func(core *Core) {
		core.WaitFlagAny(nil, 1)
	})
	if err := c.Run(); err == nil {
		t.Fatal("empty WaitFlagAny should fail the simulation")
	}
}

func TestBrokenProtocolReportsDeadlockDetail(t *testing.T) {
	// Failure injection: a receiver waiting for a sender that never
	// comes must produce a deadlock report naming the stuck core and
	// flag (the debugging surface a protocol developer relies on).
	c := New(timing.Default())
	flag := c.MPBBase(7) + 96
	c.LaunchOne(7, func(core *Core) {
		core.WaitFlag(flag, 1)
	})
	c.LaunchOne(3, func(core *Core) {
		core.Compute(simtime.Microseconds(5)) // does something, but never signals
	})
	err := c.Run()
	if err == nil {
		t.Fatal("expected deadlock")
	}
	msg := err.Error()
	if !strings.Contains(msg, "core07") || !strings.Contains(msg, "flag") {
		t.Fatalf("deadlock report lacks detail: %v", err)
	}
}

func TestSpanRecorderHook(t *testing.T) {
	c := New(timing.Default())
	var got []string
	c.LaunchOne(0, func(core *Core) {
		core.SetSpanRecorder(func(label string, start, end simtime.Time) {
			got = append(got, label)
		})
		if !core.Tracing() {
			t.Error("Tracing() false after SetSpanRecorder")
		}
		core.RecordSpan("custom", 0, 1)
	})
	c.LaunchOne(1, func(core *Core) {
		core.Compute(simtime.Microseconds(20))
		core.SetFlag(c.MPBBase(0), 1)
	})
	// Core 0 also waits on a flag to produce a wait-flag span.
	c.LaunchOne(2, func(core *Core) {})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0] != "custom" {
		t.Fatalf("span recorder not invoked: %v", got)
	}
}
