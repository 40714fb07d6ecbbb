package timing

import (
	"testing"
	"testing/quick"

	"scc/internal/simtime"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeometry(t *testing.T) {
	m := Default()
	if m.NumTiles() != 24 || m.NumCores() != 48 {
		t.Fatalf("geometry %d tiles / %d cores, want 24/48", m.NumTiles(), m.NumCores())
	}
	if m.MPBTotalBytes() != 384*1024 {
		t.Fatalf("MPB total = %d, want 384 KB (Sec. II)", m.MPBTotalBytes())
	}
}

func TestLines(t *testing.T) {
	m := Default()
	cases := []struct{ bytes, want int }{
		{0, 0}, {1, 1}, {32, 1}, {33, 2}, {64, 2}, {65, 3},
	}
	for _, c := range cases {
		if got := m.Lines(c.bytes); got != c.want {
			t.Errorf("Lines(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestPaperLatencyAnchors(t *testing.T) {
	m := Default()
	// Sec. IV-D: local MPB with the erratum workaround costs 45 core
	// cycles + 8 mesh cycles; with the bug fixed, 15 core cycles.
	if got := m.MPBAccess(0, true); got != simtime.CoreCycles(45)+simtime.MeshCycles(8) {
		t.Fatalf("buggy local access = %v", got)
	}
	fixed := Default()
	fixed.HardwareBugFixed = true
	if got := fixed.MPBAccess(0, true); got != simtime.CoreCycles(15) {
		t.Fatalf("fixed local access = %v", got)
	}
	// Off-chip: 40 core cycles + 8d mesh cycles (+ DRAM array time).
	d0 := m.DRAMAccess(0)
	d3 := m.DRAMAccess(3)
	if d3-d0 != simtime.MeshCycles(8*3) {
		t.Fatalf("DRAM distance term = %v, want 24 mesh cycles", d3-d0)
	}
}

func TestMPBAccessMonotoneInHops(t *testing.T) {
	m := Default()
	f := func(h uint8) bool {
		hops := int(h%8) + 1
		return m.MPBAccess(hops+1, true) > m.MPBAccess(hops, true) &&
			m.MPBAccess(hops+1, false) > m.MPBAccess(hops, false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadsCostMoreThanWrites(t *testing.T) {
	// Remote reads are round trips; posted writes are one-way.
	m := Default()
	for hops := 1; hops <= 8; hops++ {
		if m.MPBAccess(hops, true) <= m.MPBAccess(hops, false) {
			t.Fatalf("read not dearer than write at %d hops", hops)
		}
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	cases := []func(*Model){
		func(m *Model) { m.MeshWidth = 0 },
		func(m *Model) { m.CoresPerTile = -1 },
		func(m *Model) { m.CacheLineBytes = 20 },
		func(m *Model) { m.MPBBytesPerCore = 16 },
		func(m *Model) { m.L2Bytes = m.L1DataBytes - 1 },
		func(m *Model) { m.MeshLinkBytesPerCycle = 0 },
	}
	for i, mutate := range cases {
		m := Default()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
}

func TestLineSerialization(t *testing.T) {
	m := Default()
	if got := m.LineSerializationMeshCycles(); got != 2 {
		t.Fatalf("32B over 16B/cycle links = %d cycles, want 2", got)
	}
}

func TestOverheadOrdering(t *testing.T) {
	// The calibrated constants must preserve the paper's qualitative
	// ordering: lightweight < blocking-ish <= iRCCE << RCKMPI.
	m := Default()
	if !(m.OverheadLightweightPost < m.OverheadIRCCEPost) {
		t.Fatal("lightweight post must be cheaper than iRCCE post (Sec. IV-B)")
	}
	if !(m.OverheadLightweightWait < m.OverheadIRCCEWait) {
		t.Fatal("lightweight wait must be cheaper than iRCCE wait")
	}
	if !(m.OverheadIRCCEPost < m.OverheadRCKMPICall) {
		t.Fatal("iRCCE must be cheaper than full MPI per call (Sec. III)")
	}
}

// TestTopologyDerivation pins the derived layout facts for a spread of
// geometries: one flag line per writer, a reserved gap of at least four
// lines that holds the view bitmap, an MPB grown in default-sized steps
// to the smallest size whose chunk-data region is at least the default
// chip's, and the default geometry reproducing Default() exactly.
func TestTopologyDerivation(t *testing.T) {
	floor := Default().MPBDataBytes()
	cases := []struct {
		rows, cols, per               int
		cores, gapLines, mpbPer, data int
	}{
		{4, 4, 1, 16, 4, 8192, 7552}, // small mesh, single-core tiles
		{4, 6, 2, 48, 4, 8192, 6528}, // the paper's chip
		{8, 8, 2, 128, 4, 16384, 12160},
		{32, 32, 1, 1024, 4, 40960, 8064},
		{100, 100, 1, 10000, 40, 335872, 14592}, // 1,250-byte view bitmap
	}
	for _, c := range cases {
		m := Topology(c.rows, c.cols, c.per)
		if err := m.Validate(); err != nil {
			t.Errorf("Topology(%d,%d,%d): %v", c.rows, c.cols, c.per, err)
			continue
		}
		if m.NumCores() != c.cores {
			t.Errorf("Topology(%d,%d,%d): %d cores, want %d", c.rows, c.cols, c.per, m.NumCores(), c.cores)
		}
		if got := m.FlagBytesPerWriter(); got != m.CacheLineBytes {
			t.Errorf("Topology(%d,%d,%d): %d-byte flag region, want one %d-byte line", c.rows, c.cols, c.per, got, m.CacheLineBytes)
		}
		if got := m.GapLines(); got != c.gapLines {
			t.Errorf("Topology(%d,%d,%d): %d gap lines, want %d", c.rows, c.cols, c.per, got, c.gapLines)
		}
		if m.MPBBytesPerCore != c.mpbPer {
			t.Errorf("Topology(%d,%d,%d): %d MPB bytes/core, want %d", c.rows, c.cols, c.per, m.MPBBytesPerCore, c.mpbPer)
		}
		if got := m.MPBDataBytes(); got != c.data {
			t.Errorf("Topology(%d,%d,%d): %d data bytes, want %d", c.rows, c.cols, c.per, got, c.data)
		}
		if got := m.MPBDataBytes(); got < floor {
			t.Errorf("Topology(%d,%d,%d): data region %d below the default floor %d", c.rows, c.cols, c.per, got, floor)
		}
		if got := m.ViewBitmapBytes(); got != (c.cores+7)/8 || got > m.GapLines()*m.CacheLineBytes {
			t.Errorf("Topology(%d,%d,%d): view bitmap %d bytes, want %d inside the gap", c.rows, c.cols, c.per, got, (c.cores+7)/8)
		}
	}
	if d := Topology(4, 6, 2); *d != *Default() {
		t.Errorf("Topology(4,6,2) differs from Default():\n got %+v\nwant %+v", d, Default())
	}
}

// TestTopologyValidateRejectsGeometry: each geometry invariant has a
// dedicated rejection.
func TestTopologyValidateRejectsGeometry(t *testing.T) {
	cases := []struct {
		name string
		make func() *Model
	}{
		{"zero rows", func() *Model { return Topology(0, 6, 2) }},
		{"zero cols", func() *Model { return Topology(4, 0, 2) }},
		{"zero cores per tile", func() *Model { return Topology(4, 6, 0) }},
		{"negative rows", func() *Model { return Topology(-1, 6, 2) }},
		{"cache line narrower than the flag roles", func() *Model {
			m := Default()
			m.CacheLineBytes = 24
			return m
		}},
		{"core count overflows", func() *Model { return Topology(3037000500, 3037000500, 1) }},
		{"address space overflows", func() *Model { return Topology(100000, 100000, 1) }},
		{"no data region left", func() *Model {
			m := Topology(16, 16, 2) // 512 cores x 32 B of flags
			m.MPBBytesPerCore = 16384
			return m
		}},
	}
	for _, c := range cases {
		if err := c.make().Validate(); err == nil {
			t.Errorf("%s: invalid model accepted", c.name)
		}
	}
}
