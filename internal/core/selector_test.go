package core

import (
	"math"
	"testing"

	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// runKind executes one collective of kind k under cfg on a fresh chip
// and returns the completion latency seen by core 0 plus every core's
// result vector (only the root's for Reduce). Inputs are a fixed
// function of (core, index), so two calls with equal arguments must be
// bit-identical in both time and values.
func runKind(t *testing.T, cfg Config, k OpKind, n int) (simtime.Duration, [][]float64) {
	t.Helper()
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	root := 5
	var lat simtime.Duration
	results := make([][]float64, chip.NumCores())
	chip.Launch(func(c *scc.Core) {
		x := NewCtx(comm.UE(c.ID), cfg)
		src := c.AllocF64(n)
		dst := c.AllocF64(n)
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Round(float64(c.ID)*3.5+float64(i)*0.25*8) / 8
		}
		c.WriteF64s(src, v)
		x.Barrier()
		t0 := c.Now()
		var err error
		switch k {
		case KindAllreduce:
			err = x.Allreduce(src, dst, n, Sum)
		case KindBroadcast:
			err = x.Broadcast(root, src, n)
			dst = src
		case KindReduce:
			err = x.Reduce(root, src, dst, n, Sum)
		}
		if err != nil {
			t.Errorf("%s n=%d on core %d: %v", k, n, c.ID, err)
			return
		}
		if c.ID == 0 {
			lat = c.Now() - t0
		}
		if k == KindReduce && c.ID != root {
			return
		}
		got := make([]float64, n)
		c.ReadF64s(dst, got)
		results[c.ID] = got
	})
	if err := chip.Run(); err != nil {
		t.Fatalf("%s n=%d: %v", k, n, err)
	}
	return lat, results
}

func sameResults(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// legacySelect replicates the pre-registry branch order of the
// dispatchers, straight from the old Allreduce/Broadcast/Reduce bodies:
// short messages to the tree, then the MPB-direct flag (Allreduce on
// the fault-free full chip only), then the ring.
func legacySelect(cfg Config, k OpKind, n int) string {
	if 8*n < shortMessageThresholdBytes {
		return "tree"
	}
	if k == KindAllreduce && cfg.MPBDirect && cfg.Recovery == nil {
		return "mpb"
	}
	return "ring"
}

// TestPaperHeuristicMatchesLegacy is the sequence-equivalence proof the
// refactor rests on: for every config, op and size class, the nil
// selector, the explicit PaperHeuristic selector, and the legacy branch
// order pinned via Fixed all produce the same virtual completion time
// and the same bits.
func TestPaperHeuristicMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, cfg := range []Config{ConfigBlocking, ConfigIRCCE, ConfigBalanced, ConfigMPB} {
		for _, k := range OpKinds() {
			for _, n := range []int{1, 17, 63, 64, 200} {
				base := cfg
				base.Selector = nil
				lat0, res0 := runKind(t, base, k, n)

				heur := cfg
				heur.Selector = PaperHeuristic()
				lat1, res1 := runKind(t, heur, k, n)

				fixed := cfg
				fixed.Selector = Fixed(legacySelect(cfg, k, n))
				lat2, res2 := runKind(t, fixed, k, n)

				if lat1 != lat0 || !sameResults(res1, res0) {
					t.Errorf("%s/%s n=%d: PaperHeuristic diverges from nil selector (%v vs %v)",
						cfg.Name(), k, n, lat1, lat0)
				}
				if lat2 != lat0 || !sameResults(res2, res0) {
					t.Errorf("%s/%s n=%d: Fixed(%q) diverges from nil selector (%v vs %v)",
						cfg.Name(), k, n, legacySelect(cfg, k, n), lat2, lat0)
				}
			}
		}
	}
}

// TestFixedSelectorFallback: an unregistered name and an inapplicable
// algorithm must both degrade to the paper heuristic, never fail.
func TestFixedSelectorFallback(t *testing.T) {
	cfg := ConfigBalanced
	cfg.Selector = Fixed("no-such-algorithm")
	latBad, resBad := runKind(t, cfg, KindAllreduce, 100)

	base := ConfigBalanced
	lat0, res0 := runKind(t, base, KindAllreduce, 100)
	if latBad != lat0 || !sameResults(resBad, res0) {
		t.Errorf("Fixed(unknown) should match the heuristic exactly, got %v vs %v", latBad, lat0)
	}

	// "mpb" under the hardened protocol is inapplicable; the call must
	// still complete via the heuristic.
	pol := rcce.DefaultPolicy()
	hard := ConfigBalanced
	hard.Recovery = &pol
	hard.Selector = Fixed("mpb")
	_, res := runKind(t, hard, KindAllreduce, 100)
	if len(res) == 0 || res[0] == nil {
		t.Fatal("Fixed(mpb)+Recovery produced no result")
	}
}

func TestDecisionTableLookup(t *testing.T) {
	tab := &DecisionTable{Entries: []TableEntry{
		{Op: "allreduce", NP: 8, MaxN: 64, Algorithm: "tree"},
		{Op: "allreduce", NP: 8, MaxN: 0, Algorithm: "ring"},
		{Op: "allreduce", NP: 48, MaxN: 64, Algorithm: "recdouble"},
		{Op: "allreduce", NP: 48, MaxN: 0, Algorithm: "mpb"},
		{Op: "broadcast", NP: 48, MaxN: 0, Algorithm: "tree"},
	}}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	tab.normalize()
	cases := []struct {
		k     OpKind
		np, n int
		want  string
	}{
		{KindAllreduce, 48, 10, "recdouble"},
		{KindAllreduce, 48, 64, "recdouble"},
		{KindAllreduce, 48, 65, "mpb"},
		{KindAllreduce, 8, 64, "tree"},
		{KindAllreduce, 8, 1000, "ring"},
		{KindAllreduce, 20, 10, "tree"},       // largest np <= 20 is 8
		{KindAllreduce, 100, 10, "recdouble"}, // wider than measured: reuse np=48
		{KindAllreduce, 4, 10, "tree"},        // below smallest: reuse np=8
		{KindBroadcast, 48, 9999, "tree"},
		{KindReduce, 48, 10, ""}, // op absent from the table
	}
	for _, c := range cases {
		if got := tab.Lookup(c.k, c.np, c.n); got != c.want {
			t.Errorf("Lookup(%s, np=%d, n=%d) = %q, want %q", c.k, c.np, c.n, got, c.want)
		}
	}
}

func TestDecisionTableValidateRejects(t *testing.T) {
	bad := []DecisionTable{
		{Entries: []TableEntry{{Op: "allreduce", NP: 48, Algorithm: "nope"}}},
		{Entries: []TableEntry{{Op: "frobnicate", NP: 48, Algorithm: "ring"}}},
		{Entries: []TableEntry{{Op: "reduce", NP: 0, Algorithm: "ring"}}},
		{Entries: []TableEntry{{Op: "reduce", NP: 8, MaxN: -1, Algorithm: "ring"}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("table %d validated but should not have", i)
		}
	}
	if _, err := ParseDecisionTable([]byte("{not json")); err == nil {
		t.Error("ParseDecisionTable accepted malformed JSON")
	}
	// The multi-chip composition is no registry algorithm a table row
	// could name.
	if _, err := ParseDecisionTable([]byte(`{"entries":[{"op":"allreduce","np":96,"max_n":0,"algorithm":"hier"}]}`)); err == nil {
		t.Error(`ParseDecisionTable accepted algorithm "hier"`)
	}
}

// TestDefaultTableValid: the committed tuner output must load, validate
// against the registry, and cover every dispatched op on the full chip.
func TestDefaultTableValid(t *testing.T) {
	tab, err := DefaultTable()
	if err != nil {
		t.Fatalf("embedded default table: %v", err)
	}
	for _, k := range OpKinds() {
		for _, n := range []int{1, 64, 552, 100000} {
			name := tab.Lookup(k, 48, n)
			if name == "" {
				t.Errorf("default table has no %s entry for np=48 n=%d", k, n)
				continue
			}
			if LookupAlgorithm(k, name) == nil {
				t.Errorf("default table names unregistered %s algorithm %q", k, name)
			}
		}
	}
}

// TestDefaultTableCoversLargeMeshes: the committed table carries rows
// measured at 128 and 512 cores (tuned on a 16x16x2 mesh), so Tuned()
// on a large mesh no longer inherits the 48-core rows' picks. The
// pinned regression is EXPERIMENTS.md's heuristic-misfire band: at 512
// cores and n = 552 the 48-core tables said ring, which leaves
// ~1-element blocks and runs 2.7x slower than recursive doubling.
func TestDefaultTableCoversLargeMeshes(t *testing.T) {
	tab, err := DefaultTable()
	if err != nil {
		t.Fatalf("embedded default table: %v", err)
	}
	for _, np := range []int{128, 512} {
		for _, k := range OpKinds() {
			found := false
			for _, e := range tab.Entries {
				if e.Op == k.String() && e.NP == np {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("default table has no %s rows measured at np=%d", k, np)
			}
		}
	}
	if got := tab.Lookup(KindAllreduce, 512, 552); got == "ring" || got == "" {
		t.Errorf("Lookup(allreduce, np=512, n=552) = %q — the 48-core ring pick must not survive at 512 cores", got)
	}
	// The 48-core rows themselves must be untouched by the new entries
	// (Lookup picks the largest measured np <= requested).
	if got := tab.Lookup(KindAllreduce, 48, 552); got != "mpb" {
		t.Errorf("Lookup(allreduce, np=48, n=552) = %q, want the committed 48-core pick %q", got, "mpb")
	}
}

// TestTunedClampsAboveLargestMeasuredRow: a communicator wider than
// anything the tuner measured must clamp to the widest measured row —
// for the committed table (widest row np=512) that means np=2048 and a
// 10,000-core chip resolve every op to exactly the np=512 pick, never
// to "" (which would silently fall back to the paper heuristic and its
// known large-mesh misfires) and never to a narrower row.
func TestTunedClampsAboveLargestMeasuredRow(t *testing.T) {
	tab, err := DefaultTable()
	if err != nil {
		t.Fatalf("embedded default table: %v", err)
	}
	widest := 0
	for _, e := range tab.Entries {
		if e.NP > widest {
			widest = e.NP
		}
	}
	if widest != 512 {
		t.Logf("note: widest measured row is now np=%d", widest)
	}
	for _, np := range []int{2048, 10000} {
		for _, k := range OpKinds() {
			for _, n := range []int{1, 64, 552, 100000} {
				got := tab.Lookup(k, np, n)
				if got == "" {
					t.Errorf("Lookup(%s, np=%d, n=%d) = \"\" — no clamp to the widest measured row", k, np, n)
					continue
				}
				if want := tab.Lookup(k, widest, n); got != want {
					t.Errorf("Lookup(%s, np=%d, n=%d) = %q, want the np=%d row's pick %q",
						k, np, n, got, widest, want)
				}
			}
		}
	}
}

// TestRegistryEnumeration locks the registration order (the tuner's
// tie-break) and the per-op membership.
func TestRegistryEnumeration(t *testing.T) {
	want := map[OpKind][]string{
		KindAllreduce: {"ring", "tree", "recdouble", "mpb", "linear"},
		KindBroadcast: {"ring", "tree", "linear"},
		KindReduce:    {"ring", "tree", "linear"},
	}
	for k, names := range want {
		got := AlgorithmNames(k)
		if len(got) != len(names) {
			t.Fatalf("%s: got %v, want %v", k, got, names)
		}
		for i := range names {
			if got[i] != names[i] {
				t.Fatalf("%s: got %v, want %v", k, got, names)
			}
		}
	}
}
