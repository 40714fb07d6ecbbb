package synth

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scc/internal/core"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// The oracle-side properties: every compiled schedule computes the same
// bits as a sequential reference (dyadic inputs make float64 reduction
// exact in any association order), runs deterministically in virtual
// time, and works for any root and on proper subgroups through the
// rank relabeling.

func dyadicInputs(seed int64, cores, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, cores)
	for c := range out {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Round(rng.Float64()*64) / 8
		}
		out[c] = v
	}
	return out
}

// runCompiled executes one compiled schedule on a chip, communicator
// cores 0..np-1 (a proper Group when np < the chip), root core 7 for
// rooted ops (or 0 when np < 8), and returns the final virtual time and
// the per-core results.
func runCompiled(t *testing.T, model *timing.Model, a core.Algorithm, op string, np, n int, in [][]float64) (simtime.Time, [][]float64, int) {
	t.Helper()
	cfg := core.ConfigBalanced
	chip := scc.New(model)
	comm := rcce.NewComm(chip)
	root := 7
	if np < 8 {
		root = np / 2
	}
	var grp *core.Group
	if np < chip.NumCores() {
		members := make([]int, np)
		for i := range members {
			members[i] = i
		}
		g, err := core.NewGroup(members, chip.NumCores())
		if err != nil {
			t.Fatal(err)
		}
		grp = g
	}
	results := make([][]float64, chip.NumCores())
	chip.Launch(func(c *scc.Core) {
		if c.ID >= np {
			return
		}
		x, err := core.NewCtxWith(comm.UE(c.ID), cfg, core.CtxOpts{Group: grp})
		if err != nil {
			t.Errorf("ctx: %v", err)
			return
		}
		if !a.Applicable(x, n) {
			t.Errorf("%s np=%d: compiled schedule not applicable", op, np)
			return
		}
		src := c.AllocF64(n)
		dst := c.AllocF64(n)
		c.WriteF64s(src, in[c.ID])
		switch op {
		case "allreduce":
			err = a.(core.AllreduceAlgorithm).Allreduce(x, src, dst, n, core.Sum)
		case "broadcast":
			err = a.(core.BroadcastAlgorithm).Broadcast(x, root, src, n)
			dst = src
		case "reduce":
			err = a.(core.ReduceAlgorithm).Reduce(x, root, src, dst, n, core.Sum)
		}
		if err != nil {
			t.Errorf("%s[%s] np=%d n=%d core %d: %v", op, a.Name(), np, n, c.ID, err)
			return
		}
		if op == "reduce" && c.ID != root {
			return
		}
		got := make([]float64, n)
		c.ReadF64s(dst, got)
		results[c.ID] = got
	})
	if err := chip.Run(); err != nil {
		t.Fatalf("%s[%s] np=%d n=%d: %v", op, a.Name(), np, n, err)
	}
	return chip.Now(), results, root
}

func refResult(op string, root, np, cores int, in [][]float64) [][]float64 {
	n := len(in[0])
	out := make([][]float64, cores)
	switch op {
	case "allreduce", "reduce":
		sum := make([]float64, n)
		for c := 0; c < np; c++ {
			for i := range in[c] {
				sum[i] += in[c][i]
			}
		}
		if op == "allreduce" {
			for c := 0; c < np; c++ {
				out[c] = sum
			}
		} else {
			out[root] = sum
		}
	case "broadcast":
		for c := 0; c < np; c++ {
			out[c] = in[root]
		}
	}
	return out
}

func TestCompiledSchedulesBitEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	model := timing.Default()
	for _, op := range []string{"allreduce", "broadcast", "reduce"} {
		for _, np := range []int{12, 48} {
			for _, n := range []int{1, 13, 64, 200} {
				cands, err := Enumerate(model, op, np, n, Options{MaxCands: 3})
				if err != nil {
					t.Fatal(err)
				}
				in := dyadicInputs(int64(len(op))*1000+int64(np*1000+n), 48, n)
				for _, cand := range cands {
					a, err := Compile(cand.Sched, NameFor(op, np, 0))
					if err != nil {
						t.Fatal(err)
					}
					now1, got1, root := runCompiled(t, model, a, op, np, n, in)
					now2, got2, _ := runCompiled(t, model, a, op, np, n, in)
					if now1 != now2 {
						t.Errorf("%s[%s] np=%d n=%d: nondeterministic virtual time %v vs %v",
							op, cand.Sched.Gen, np, n, now1, now2)
					}
					want := refResult(op, root, np, 48, in)
					for c := range want {
						if want[c] == nil {
							continue
						}
						if got1[c] == nil {
							t.Errorf("%s[%s] np=%d n=%d: core %d missing result", op, cand.Sched.Gen, np, n, c)
							continue
						}
						for i := range want[c] {
							if got1[c][i] != want[c][i] || got1[c][i] != got2[c][i] {
								t.Errorf("%s[%s] np=%d n=%d: core %d elem %d = %v, want %v (bit-exact)",
									op, cand.Sched.Gen, np, n, c, i, got1[c][i], want[c][i])
								break
							}
						}
					}
				}
			}
		}
	}
}

// The halving-doubling template is the one chunked schedule family; run
// it end to end on a power-of-two subgroup.
func TestHalvingDoublingBitEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	model := timing.Default()
	for _, chunks := range []int{2, 4} {
		s := halvingDoubling(32, chunks)
		s.Op, s.NP, s.NumSteps = "allreduce", 32, len(s.Steps)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{3, 64, 552} {
			a, err := Compile(s, NameFor("allreduce", 32, 0))
			if err != nil {
				t.Fatal(err)
			}
			in := dyadicInputs(int64(7000+chunks*100+n), 48, n)
			_, got, _ := runCompiled(t, model, a, "allreduce", 32, n, in)
			want := refResult("allreduce", 0, 32, 48, in)
			for c := range want {
				if want[c] == nil {
					continue
				}
				if got[c] == nil {
					t.Fatalf("hd:%d n=%d: core %d missing result", chunks, n, c)
				}
				for i := range want[c] {
					if got[c][i] != want[c][i] {
						t.Fatalf("hd:%d n=%d: core %d elem %d = %v, want %v", chunks, n, c, i, got[c][i], want[c][i])
					}
				}
			}
		}
	}
}

func TestNameFor(t *testing.T) {
	if got := NameFor("allreduce", 48, 64); got != "synth:allreduce:48:64" {
		t.Fatalf("NameFor = %q", got)
	}
	if got := NameFor("reduce", 512, 0); got != "synth:reduce:512:inf" {
		t.Fatalf("NameFor = %q", got)
	}
}

func TestDefaultTableRegisters(t *testing.T) {
	tab, err := DefaultTable()
	if err != nil {
		t.Fatalf("embedded table: %v", err)
	}
	RegisterDefaults()
	RegisterDefaults() // idempotent
	for _, e := range tab.Entries {
		k, err := core.ParseOpKind(e.Op)
		if err != nil {
			t.Fatal(err)
		}
		name := NameFor(e.Op, e.NP, e.MaxN)
		if !strings.HasPrefix(name, "synth:") {
			t.Fatalf("name %q does not follow synth:<op>:<np>:<bucket>", name)
		}
		a := core.LookupAlgorithm(k, name)
		if a == nil {
			t.Fatalf("entry %s not registered", name)
		}
		if a.Name() != name {
			t.Fatalf("registered name %q != %q", a.Name(), name)
		}
	}
}

func TestTableRoundTrip(t *testing.T) {
	model := timing.Default()
	cands, err := Enumerate(model, "broadcast", 8, 16, Options{MaxCands: 1})
	if err != nil {
		t.Fatal(err)
	}
	tab := &Table{
		Transport: "test",
		Entries: []TableEntry{{Op: "broadcast", NP: 8, MaxN: 16,
			Gen: cands[0].Sched.Gen, N: 16, Mesh: model.MeshSpec()}},
	}
	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 1 || movesFingerprint(back.Entries[0].Sched) != movesFingerprint(cands[0].Sched) {
		t.Fatal("the recipe did not rebuild the enumerated schedule")
	}
	if err := back.Register(); err != nil {
		t.Fatal(err)
	}
	if err := back.Register(); err != nil { // idempotent
		t.Fatal(err)
	}
	if core.LookupAlgorithm(core.KindBroadcast, "synth:broadcast:8:16") == nil {
		t.Fatal("round-tripped table entry not registered")
	}
}

// TestDefaultTableRebuildsCommittedMoves pins every recipe of the
// committed table to the moves of the schedule it stood for when the
// table still stored move lists: step count, move count and a SHA-256
// prefix of movesFingerprint, recorded from those lists. The 512-core
// rows are too slow to re-sweep in a unit test; this is their check.
func TestDefaultTableRebuildsCommittedMoves(t *testing.T) {
	if len(defaultTableJSON) >= 4096 {
		t.Errorf("synth_default.json is %d bytes; recipes fit in 4 KB", len(defaultTableJSON))
	}
	want := []struct {
		op          string
		np, maxN    int
		gen         string
		steps, mvs  int
		fingerprint string
	}{
		{"allreduce", 48, 64, "beam", 7, 280, "0fc8c6b9d7b2c3c3"},
		{"allreduce", 48, 552, "beam", 7, 280, "0fc8c6b9d7b2c3c3"},
		{"broadcast", 48, 64, "beam", 4, 47, "af1e21a067efd8dd"},
		{"broadcast", 48, 552, "beam", 4, 47, "af1e21a067efd8dd"},
		{"reduce", 48, 64, "near:f1", 6, 47, "a68aab5d1f7dda72"},
		{"reduce", 48, 552, "near:f1", 6, 47, "a68aab5d1f7dda72"},
		{"allreduce", 512, 64, "hd:4", 11, 6656, "0978f390cdaf57a7"},
		{"allreduce", 512, 552, "hd:4", 11, 6656, "0978f390cdaf57a7"},
		{"broadcast", 512, 64, "xy:f2", 6, 511, "efc5332bad123af8"},
		{"broadcast", 512, 552, "xy:f2", 6, 511, "efc5332bad123af8"},
		{"reduce", 512, 64, "near:f1", 9, 511, "e8b9763502c846a2"},
		{"reduce", 512, 552, "near:f1", 9, 511, "e8b9763502c846a2"},
	}
	tab, err := DefaultTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Entries) != len(want) {
		t.Fatalf("committed table has %d entries, want %d", len(tab.Entries), len(want))
	}
	for i, w := range want {
		e := tab.Entries[i]
		s := e.Sched
		sum := sha256.Sum256([]byte(movesFingerprint(s)))
		got := fmt.Sprintf("%s %d %d %s %d %d %x", e.Op, e.NP, e.MaxN, s.Gen, s.NumSteps, s.TotalMoves(), sum[:8])
		if exp := fmt.Sprintf("%s %d %d %s %d %d %s", w.op, w.np, w.maxN, w.gen, w.steps, w.mvs, w.fingerprint); got != exp {
			t.Errorf("entry %d rebuilt as %q, want %q", i, got, exp)
		}
	}
}

// TestParseTableRejectsBadRecipes: a recipe that cannot rebuild its
// schedule fails the parse instead of registering something else.
func TestParseTableRejectsBadRecipes(t *testing.T) {
	good := TableEntry{Op: "broadcast", NP: 8, MaxN: 16, Gen: "near:f1", N: 16, Mesh: "4x6x2"}
	for _, tc := range []struct {
		name  string
		edit  func(e *TableEntry)
		twice bool
		want  string
	}{
		{"unknown generator", func(e *TableEntry) { e.Gen = "zigzag" }, false, "no generator"},
		{"template for the wrong op", func(e *TableEntry) { e.Gen = "hd:2" }, false, "no generator"},
		{"template off a power of two", func(e *TableEntry) { e.Op, e.NP, e.Gen = "allreduce", 12, "hd:2" }, false, "does not rebuild"},
		{"padded label", func(e *TableEntry) { e.Op, e.Gen = "allreduce", "hd:02" }, false, "does not rebuild"},
		{"mesh syntax", func(e *TableEntry) { e.Mesh = "4x6" }, false, "mesh"},
		{"mesh suffix", func(e *TableEntry) { e.Mesh = "4x6x2x1" }, false, "mesh"},
		{"np beyond the mesh", func(e *TableEntry) { e.NP = 64 }, false, "exceeds"},
		{"no search size", func(e *TableEntry) { e.N = 0 }, false, "n=0"},
		{"unknown op", func(e *TableEntry) { e.Op = "scan" }, false, "unknown op"},
		{"duplicate cell", func(*TableEntry) {}, true, "duplicate"},
	} {
		e := good
		tc.edit(&e)
		tab := Table{Entries: []TableEntry{e}}
		if tc.twice {
			tab.Entries = append(tab.Entries, e)
		}
		data, err := json.Marshal(tab)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseTable(data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ParseTable error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
