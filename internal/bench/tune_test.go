package bench

import (
	"encoding/json"
	"os"
	"testing"

	"scc/internal/core"
	"scc/internal/timing"
)

// TestTuneSweepDeterministic runs a small tuner sweep twice and demands
// identical tables: the tuner is a measurement, and measurements on the
// virtual chip are reproducible.
func TestTuneSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	sp := TuneSpec{
		NPs:     []int{4, 48},
		Buckets: []int{16, 0},
		Reps:    1,
		Cfg:     core.ConfigBalanced,
	}
	r := NewRunner(0)
	tab1, cells1, err := Tune(r, timing.Default(), sp)
	if err != nil {
		t.Fatal(err)
	}
	tab2, _, err := Tune(NewRunner(1), timing.Default(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab1.Entries) != len(core.OpKinds())*len(sp.NPs)*len(sp.Buckets) {
		t.Fatalf("got %d entries, want one per cell", len(tab1.Entries))
	}
	if len(tab1.Entries) != len(tab2.Entries) {
		t.Fatalf("parallel and serial sweeps disagree on entry count")
	}
	for i := range tab1.Entries {
		if tab1.Entries[i] != tab2.Entries[i] {
			t.Errorf("entry %d differs across runs: %+v vs %+v", i, tab1.Entries[i], tab2.Entries[i])
		}
	}
	for _, c := range cells1 {
		if c.Winner == "" {
			t.Errorf("cell %s/np=%d/max_n=%d has no winner", c.Op, c.NP, c.MaxN)
		}
		if lat, ok := c.Latency[c.Winner]; !ok || lat <= 0 {
			t.Errorf("cell %s/np=%d/max_n=%d winner %q has no positive latency", c.Op, c.NP, c.MaxN, c.Winner)
		}
		for algo, lat := range c.Latency {
			if lat < c.Latency[c.Winner] {
				t.Errorf("cell %s/np=%d/max_n=%d: %q (%v) beats declared winner %q (%v)",
					c.Op, c.NP, c.MaxN, algo, lat, c.Winner, c.Latency[c.Winner])
			}
		}
	}
}

// TestTuneSpecValidation rejects malformed sweeps: among them a bucket
// list that is only the unbounded bucket, which has no bounded edge to
// size it from, and a sweep without repetitions.
func TestTuneSpecValidation(t *testing.T) {
	bad := []TuneSpec{
		{},
		{NPs: []int{1}, Buckets: []int{0}, Cfg: core.ConfigBalanced},
		{NPs: []int{8, 4}, Buckets: []int{0}, Cfg: core.ConfigBalanced},
		{NPs: []int{8}, Buckets: []int{0, 16}, Cfg: core.ConfigBalanced},
		{NPs: []int{8}, Buckets: []int{64, 16}, Cfg: core.ConfigBalanced},
		{NPs: []int{8}, Buckets: []int{0}, Reps: 1, Cfg: core.ConfigBalanced},
		{NPs: []int{8}, Buckets: []int{16, 0}, Cfg: core.ConfigBalanced},
	}
	for i, sp := range bad {
		if _, _, err := Tune(NewRunner(1), timing.Default(), sp); err == nil {
			t.Errorf("spec %d accepted but should not be", i)
		}
	}
}

// TestSpecProvenanceMatchesCommittedTables: both sweeps record their
// configuration's name as the table's transport, so the committed
// artifacts must carry the name of the configuration their default
// specs run.
func TestSpecProvenanceMatchesCommittedTables(t *testing.T) {
	for file, sp := range map[string]TuneSpec{
		"../core/tuned_default.json":  TuneSpecFor(48),
		"../synth/synth_default.json": SynthSpecFor(48),
	} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var tab struct {
			Transport string `json:"transport"`
		}
		if err := json.Unmarshal(data, &tab); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if got := sp.Cfg.Name(); got != tab.Transport {
			t.Errorf("%s records transport %q; its spec runs %q", file, tab.Transport, got)
		}
	}
}

// measureWithSelector measures the balanced stack under an explicit
// selection policy.
func measureWithSelector(model *timing.Model, op Op, sel core.Selector, n int) float64 {
	cfg := core.ConfigBalanced
	cfg.Selector = sel
	st := Stack{Name: "balanced", Cfg: cfg}
	return Measure(model, op, st, n, 1).Micros()
}

// TestTunedAtLeastPaperHeuristic is the PR's acceptance criterion: on
// Fig. 9 panel cells the tuned selector never loses to the paper
// heuristic, and it wins outright on the short-message Broadcast and
// Reduce cells where the binomial tree beats the ring but the
// heuristic's 512-byte threshold has already switched to the ring.
func TestTunedAtLeastPaperHeuristic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	model := timing.Default()
	tuned := core.Tuned()
	heur := core.PaperHeuristic()
	for _, op := range []Op{OpBroadcast, OpReduce, OpAllreduce} {
		for _, n := range []int{16, 63, 64, 100, 256, 552} {
			h := measureWithSelector(model, op, heur, n)
			tu := measureWithSelector(model, op, tuned, n)
			// Identical picks must tie exactly; different picks must not
			// regress. The tiny epsilon only absorbs float formatting of
			// the microsecond conversion, not a real slowdown.
			if tu > h*1.0001 {
				t.Errorf("%s n=%d: tuned %.2fus slower than heuristic %.2fus", op, n, tu, h)
			}
			// Strict wins where the heuristic has switched to the ring
			// (8n >= 512 bytes) but the tree still dominates.
			if (op == OpBroadcast || op == OpReduce) && n >= 64 && n <= 256 {
				if !(tu < h) {
					t.Errorf("%s n=%d: tuned %.2fus should beat heuristic %.2fus strictly", op, n, tu, h)
				}
			}
		}
	}
}

// TestStackAlgoPinsAlgorithm: a Stack with Algo set must actually run
// that algorithm — observable because pinning the tree for a long
// vector costs measurably more than the ring the heuristic picks.
func TestStackAlgoPinsAlgorithm(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	model := timing.Default()
	base := Stack{Name: "balanced", Cfg: core.ConfigBalanced}
	pinned := Stack{Name: "balanced", Cfg: core.ConfigBalanced, Algo: "linear"}
	n := 552
	lb := Measure(model, OpAllreduce, base, n, 1)
	lp := Measure(model, OpAllreduce, pinned, n, 1)
	if float64(lp) < 2*float64(lb) {
		t.Errorf("pinning linear should be much slower than the heuristic: got %v vs %v", lp, lb)
	}
	if got, want := pinned.Label(), "balanced [linear]"; got != want {
		t.Errorf("Label() = %q, want %q", got, want)
	}
	if got, want := base.Label(), "balanced"; got != want {
		t.Errorf("Label() = %q, want %q", got, want)
	}
}
