package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"scc/internal/fabric"
	"scc/internal/scc"
	"scc/internal/timing"
)

// The multi-chip Barrier is the payload-free gateway exchange.
// testdata/hier_barrier_pin.txt was recorded on the commit before
// hierBarrier's hand-written hub loop was folded into gatewayExchange,
// so this test proves the fold moved no tick: per (chips, mesh) every
// core's exit tick from three consecutive Barriers, entered with a
// per-core skew so arrival order differs between chips.
//
// Regenerate only when the workload below changes, never to absorb a
// difference:
//
//	HIER_BARRIER_PIN_UPDATE=1 go test -run TestHierBarrierPin ./internal/core/
const hierBarrierPinPath = "testdata/hier_barrier_pin.txt"

// hierBarrierExits runs three Barriers on a chips-chip system and
// returns one line per core: its global rank and its three exit ticks.
func hierBarrierExits(t *testing.T, model *timing.Model, chips int) []string {
	t.Helper()
	sys := fabric.New(model, chips)
	perChip := model.NumCores()
	exits := make([][3]int64, chips*perChip)
	sys.Launch(func(ci int, c *scc.Core) {
		x, err := NewCtxWith(sys.Comms[ci].UE(c.ID), ConfigBalanced,
			CtxOpts{Port: sys.Port(ci)})
		if err != nil {
			t.Errorf("chip %d core %d: %v", ci, c.ID, err)
			return
		}
		defer x.Release()
		c.ComputeCycles(int64(97 * ((ci*31 + c.ID*7) % 13)))
		for i := range exits[0] {
			if err := x.Barrier(); err != nil {
				t.Errorf("chip %d core %d: Barrier %d: %v", ci, c.ID, i, err)
				return
			}
			exits[ci*perChip+c.ID][i] = int64(c.Now())
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("%d chips: %v", chips, err)
	}
	mesh := fmt.Sprintf("%dx%dx%d", model.MeshHeight, model.MeshWidth, model.CoresPerTile)
	lines := make([]string, len(exits))
	for g, e := range exits {
		lines[g] = fmt.Sprintf("%dx%s rank=%d exits=%d,%d,%d", chips, mesh, g, e[0], e[1], e[2])
	}
	return lines
}

func TestHierBarrierPin(t *testing.T) {
	var lines []string
	for _, chips := range []int{2, 3, 4} {
		for _, m := range []*timing.Model{timing.Default(), timing.Topology(2, 2, 2)} {
			lines = append(lines, hierBarrierExits(t, m, chips)...)
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if os.Getenv("HIER_BARRIER_PIN_UPDATE") != "" {
		if err := os.WriteFile(hierBarrierPinPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cores)", hierBarrierPinPath, len(lines))
		return
	}
	raw, err := os.ReadFile(hierBarrierPinPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d cores, the workload %d", hierBarrierPinPath, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("core line %d moved:\n  want: %s\n  got:  %s", i+1, want[i], lines[i])
		}
	}
}
