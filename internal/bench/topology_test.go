package bench

import (
	"bytes"
	"errors"
	"math/big"
	"strings"
	"testing"
	"time"

	"scc/internal/timing"
)

func TestParseMeshSpec(t *testing.T) {
	good := []struct {
		spec                   string
		rows, cols, per, cores int
	}{
		{"", 4, 6, 2, 48},      // default chip
		{"4x6x2", 4, 6, 2, 48}, // the default, spelled out (rows x cols x cores/tile)
		{"4x4x1", 4, 4, 1, 16},
		{"8x8x2", 8, 8, 2, 128},
		{"6x4", 6, 4, 1, 24}, // two-part spec: cores/tile defaults to 1
		{"100x100", 100, 100, 1, 10000},
	}
	for _, c := range good {
		m, err := ParseMeshSpec(c.spec)
		if err != nil {
			t.Errorf("ParseMeshSpec(%q): %v", c.spec, err)
			continue
		}
		if m.MeshHeight != c.rows || m.MeshWidth != c.cols || m.CoresPerTile != c.per || m.NumCores() != c.cores {
			t.Errorf("ParseMeshSpec(%q) = %dx%dx%d (%d cores), want %dx%dx%d (%d)",
				c.spec, m.MeshHeight, m.MeshWidth, m.CoresPerTile, m.NumCores(),
				c.rows, c.cols, c.per, c.cores)
		}
	}
	// The default spec must be the paper's model exactly, not merely the
	// same geometry.
	m, _ := ParseMeshSpec("4x6x2")
	if *m != *timing.Default() {
		t.Error("ParseMeshSpec(4x6x2) differs from timing.Default()")
	}

	bad := []string{"6x4x2x1", "ax4x2", "6x-1x2", "0x4x2", "6x4x0", "6 x 4 x 2"}
	for _, spec := range bad {
		_, err := ParseMeshSpec(spec)
		if err == nil {
			t.Errorf("ParseMeshSpec(%q) accepted invalid spec", spec)
			continue
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("ParseMeshSpec(%q): error %v is not a *SpecError", spec, err)
		} else if se.Flag != "-mesh" || se.Value != spec {
			t.Errorf("ParseMeshSpec(%q): SpecError names %s=%q", spec, se.Flag, se.Value)
		}
	}
}

// TestMeshSpecOverflow: a huge -mesh spec returns at once, either as a
// *SpecError or as a model whose core count and MPB layout are the true
// products. Deriving 4000x4000 once took 11 s in an 8 KB-step loop, and
// 100000x100000 passed Validate on a wrapped layout product.
func TestMeshSpecOverflow(t *testing.T) {
	for _, c := range []struct {
		spec       string
		rows, cols int
	}{
		{"4000x4000", 4000, 4000},
		{"100000x100000", 100000, 100000},
		{"3037000500x3037000500", 3037000500, 3037000500},
	} {
		start := time.Now()
		m, err := ParseMeshSpec(c.spec)
		if d := time.Since(start); d > time.Second {
			t.Errorf("ParseMeshSpec(%q) took %v", c.spec, d)
		}
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Errorf("ParseMeshSpec(%q): error %v is not a *SpecError", c.spec, err)
			}
			continue
		}
		cores := new(big.Int).Mul(big.NewInt(int64(c.rows)), big.NewInt(int64(c.cols)))
		space := new(big.Int).Mul(cores, big.NewInt(int64(m.MPBBytesPerCore)))
		flags := new(big.Int).Mul(cores, big.NewInt(int64(m.CacheLineBytes)))
		room := new(big.Int).Sub(big.NewInt(int64(m.MPBBytesPerCore)), flags)
		if !cores.IsInt64() || int64(m.NumCores()) != cores.Int64() ||
			!space.IsInt64() || int64(m.MPBTotalBytes()) != space.Int64() ||
			room.Cmp(big.NewInt(int64(m.MPBDataBytes()))) < 0 ||
			m.MPBDataBytes() < timing.Default().MPBDataBytes() {
			t.Errorf("ParseMeshSpec(%q) accepted a wrapped model: %d cores, %d-byte MPB, %d data bytes",
				c.spec, m.NumCores(), m.MPBBytesPerCore, m.MPBDataBytes())
		}
	}
}

func TestParseChips(t *testing.T) {
	if k, err := ParseChips("4"); err != nil || k != 4 {
		t.Errorf("ParseChips(4) = %d, %v", k, err)
	}
	for _, val := range []string{"", "x", "0", "-2", "1.5"} {
		_, err := ParseChips(val)
		var se *SpecError
		if err == nil || !errors.As(err, &se) {
			t.Errorf("ParseChips(%q) = %v, want *SpecError", val, err)
		}
	}
}

func TestMeshLabel(t *testing.T) {
	if got := MeshLabel(timing.Default(), 1); got != "4x6x2" {
		t.Errorf("single-chip label = %q", got)
	}
	if got := MeshLabel(timing.Topology(8, 8, 2), 4); got != "4x 8x8x2" {
		t.Errorf("multi-chip label = %q", got)
	}
}

// TestTopologyPanelWorkerIndependence: an 8x8x2 (128-core) panel sweep
// must be byte-identical between the serial runner and a 4-worker pool
// — topology changes nothing about same-seed determinism.
func TestTopologyPanelWorkerIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	model := timing.Topology(8, 8, 2)
	sizes := []int{64, 96}
	var serial, par bytes.Buffer
	if err := WriteTopologyCSV(&serial, model, 1, NewRunner(1).Panel(model, OpAllreduce, sizes, 1)); err != nil {
		t.Fatal(err)
	}
	if err := WriteTopologyCSV(&par, model, 1, NewRunner(4).Panel(model, OpAllreduce, sizes, 1)); err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.String() {
		t.Errorf("8x8x2 allreduce panel differs between workers=1 and workers=4:\n%s\nvs\n%s",
			serial.String(), par.String())
	}
	if !strings.HasPrefix(serial.String(), "mesh,cores,chips,n,") {
		t.Errorf("topology CSV missing geometry columns: %q", strings.SplitN(serial.String(), "\n", 2)[0])
	}
	if !strings.Contains(serial.String(), "8x8x2,128,1,64,") {
		t.Errorf("topology CSV rows not labeled with the geometry:\n%s", serial.String())
	}
}

// TestHierarchicalMeasurement: the hierarchical measurement completes
// deterministically, costs more than a single chip of the same model
// (the fabric is slower than the mesh), and the sweep labels rows with
// the system geometry.
func TestHierarchicalMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	model := timing.Default()
	flat := MeasureHier(model, 1, "ring", OpAllreduce, 256, 1)
	hier1 := MeasureHier(model, 2, "ring", OpAllreduce, 256, 1)
	hier2 := MeasureHier(model, 2, "ring", OpAllreduce, 256, 1)
	if hier1 != hier2 {
		t.Errorf("hierarchical measurement nondeterministic: %v vs %v", hier1, hier2)
	}
	if hier1 <= flat {
		t.Errorf("2-chip hierarchical Allreduce (%v) not dearer than one chip (%v)", hier1, flat)
	}

	var buf bytes.Buffer
	s := HierSweep(model, 2, "", OpAllreduce, []int{64}, 1)
	if err := WriteTopologyCSV(&buf, model, 2, []Series{s}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hierarchical 2x 4x6x2") {
		t.Errorf("hier sweep label missing geometry:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "4x6x2,96,2,64,") {
		t.Errorf("topology CSV row mislabeled:\n%s", buf.String())
	}
}
