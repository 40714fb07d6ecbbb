package synth

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"scc/internal/timing"
)

// Every candidate Enumerate returns, pinned: generator label, step and
// move counts, model cost and a SHA-256 prefix of movesFingerprint per
// (mesh, op, np, n) cell. testdata/enumerate_pin.txt was recorded before
// the beam search was moved onto the validator's state and applyStep,
// so this test proves the move changed no search decision. np 65 and
// 128 cover masks of more than one word.
//
// Regenerate only when the workload below changes, never to absorb a
// difference:
//
//	ENUMERATE_PIN_UPDATE=1 go test -run TestEnumeratePin ./internal/synth/
const enumeratePinPath = "testdata/enumerate_pin.txt"

func TestEnumeratePin(t *testing.T) {
	cells := []struct {
		model *timing.Model
		nps   []int
	}{
		{timing.Topology(4, 6, 2), []int{3, 8, 48}},
		{timing.Topology(8, 8, 2), []int{64, 65, 128}},
	}
	var lines []string
	for _, cell := range cells {
		for _, op := range []string{"allreduce", "broadcast", "reduce"} {
			for _, n := range []int{16, 552} {
				for _, np := range cell.nps {
					cands, err := Enumerate(cell.model, op, np, n, Options{})
					if err != nil {
						t.Fatalf("%s %s np=%d n=%d: %v", cell.model.MeshSpec(), op, np, n, err)
					}
					for i, c := range cands {
						s := c.Sched
						sum := sha256.Sum256([]byte(movesFingerprint(s)))
						lines = append(lines, fmt.Sprintf("%s %s np=%d n=%d #%d %s steps=%d moves=%d cost=%d %x",
							cell.model.MeshSpec(), op, np, n, i, s.Gen, s.NumSteps, s.TotalMoves(), int64(c.Cost), sum[:8]))
					}
				}
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if os.Getenv("ENUMERATE_PIN_UPDATE") != "" {
		if err := os.WriteFile(enumeratePinPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d candidates)", enumeratePinPath, len(lines))
		return
	}
	raw, err := os.ReadFile(enumeratePinPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d candidates, the workload %d", enumeratePinPath, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("candidate line %d moved:\n  want: %s\n  got:  %s", i+1, want[i], lines[i])
		}
	}
}

// BenchmarkDefaultTable times the rebuild of the committed table's
// twelve recipes, which every binary that calls RegisterDefaults pays
// once at start-up.
func BenchmarkDefaultTable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DefaultTable(); err != nil {
			b.Fatal(err)
		}
	}
}
