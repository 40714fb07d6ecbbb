package timing

import (
	"math/big"
	"testing"
)

// FuzzTopologyLayout holds every model Validate accepts to the MPB
// layout invariants: one flag line per writer, the flag lines, the view
// slot and the gap ending exactly where the data region starts, a data
// region no smaller than the paper chip's for a derived Topology, and no
// product that wrapped on the way. Each input is checked twice: as the
// Topology(rows, cols, per) geometry, and as a hand-built model with
// that geometry and the given cache line and MPB size.
func FuzzTopologyLayout(f *testing.F) {
	f.Fuzz(func(t *testing.T, rows, cols, per, line, mpb int) {
		checkLayout(t, Topology(rows, cols, per), true)
		hand := Default()
		hand.MeshHeight, hand.MeshWidth, hand.CoresPerTile = rows, cols, per
		hand.CacheLineBytes, hand.MPBBytesPerCore = line, mpb
		checkLayout(t, hand, false)
	})
}

func checkLayout(t *testing.T, m *Model, derived bool) {
	t.Helper()
	if m.Validate() != nil {
		return
	}
	spec := m.MeshSpec()
	cores := new(big.Int).Mul(big.NewInt(int64(m.MeshHeight)), big.NewInt(int64(m.MeshWidth)))
	cores.Mul(cores, big.NewInt(int64(m.CoresPerTile)))
	if !cores.IsInt64() || cores.Int64() != int64(m.NumCores()) {
		t.Fatalf("%s: NumCores %d, want %v", spec, m.NumCores(), cores)
	}
	space := new(big.Int).Mul(cores, big.NewInt(int64(m.MPBBytesPerCore)))
	if space.Cmp(big.NewInt(1<<56)) > 0 || int64(m.MPBTotalBytes()) != space.Int64() {
		t.Fatalf("%s: MPB space %d, want %v within 1<<56", spec, m.MPBTotalBytes(), space)
	}
	line := m.CacheLineBytes
	if m.FlagBytesPerWriter() != line || line < FlagLineBytes {
		t.Fatalf("%s: %d-byte flag region, want one line of at least %d bytes", spec, m.FlagBytesPerWriter(), FlagLineBytes)
	}
	if m.ViewSlot() != m.NumCores()*line {
		t.Fatalf("%s: view slot at %d, want right behind %d flag lines", spec, m.ViewSlot(), m.NumCores())
	}
	gap := m.GapLines() * line
	if m.GapLines() < minGapLines || m.ViewBitmapBytes() > gap {
		t.Fatalf("%s: %d-line gap cannot hold the %d-byte view bitmap", spec, m.GapLines(), m.ViewBitmapBytes())
	}
	if dataBase := m.MPBBytesPerCore - m.MPBDataBytes(); dataBase != m.ViewSlot()+gap || m.MPBDataBytes() <= 0 {
		t.Fatalf("%s: data region at %d (%d bytes), want it at %d", spec, dataBase, m.MPBDataBytes(), m.ViewSlot()+gap)
	}
	if derived {
		floor, step := Default().MPBDataBytes(), Default().MPBBytesPerCore
		if d := m.MPBDataBytes(); d < floor || d >= floor+step || m.MPBBytesPerCore%step != 0 {
			t.Fatalf("%s: %d-byte MPB leaves %d data bytes, want the smallest %d-byte step past %d", spec, m.MPBBytesPerCore, d, step, floor)
		}
	}
}
