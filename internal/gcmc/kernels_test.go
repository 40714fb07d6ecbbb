package gcmc

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"scc/internal/core"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

// chainParams is a few molecules on the 8-core chip: deletes of the last
// index, cores that own nothing and owners losing their last molecule
// all happen within a few hundred moves.
func chainParams() Params {
	p := testParams()
	p.NumParticles = 7
	p.Cycles = 320
	return p
}

// firstFailure keeps the first complaint of a check that runs inside the
// cores' coroutines, where t.Fatal must not be called.
type firstFailure string

func (f *firstFailure) printf(format string, args ...any) {
	if *f == "" {
		*f = firstFailure(fmt.Sprintf(format, args...))
	}
}

// rewrapped is the position the parent's atomPos computed on every use:
// the reference pos must equal after any move.
func rewrapped(s *Simulation, i, a int) [3]float64 {
	m := s.molAt(i)
	var r [3]float64
	for d := range r {
		r[d] = wrap(m[0][d]+m[1+a][d], s.P.BoxSide)
	}
	return r
}

// TestPositionStoreTracksEveryMove: after every move of a long chain,
// on every core, pos holds exactly the re-wrapped position of every atom
// and the tracked energy is the from-scratch energy. The chain must
// contain every call site of setMol and dropLast: all four moves
// accepted and rejected, and a delete of the last index both ways.
func TestPositionStoreTracksEveryMove(t *testing.T) {
	p := chainParams()
	saw := map[string]bool{}
	step := 0
	var bad firstFailure
	runStepped(t, smallChip(), p, coreStack(core.ConfigBalanced), func(s *Simulation, mv *moveRecord) {
		na := s.P.AtomsPerParticle
		if len(s.pos) != s.n*na || len(s.mol) != s.n*(1+na) {
			bad.printf("core %d step %d: %d molecules, %d positions, %d rows", s.rank, step, s.n, len(s.pos), len(s.mol))
			return
		}
		for i := 0; i < s.n; i++ {
			for a := 0; a < na; a++ {
				if got, want := s.pos[i*na+a], rewrapped(s, i, a); !sameBits(got, want) {
					bad.printf("core %d step %d (%+v): pos of atom %d.%d is %v, re-wrapped %v", s.rank, step, mv, i, a, got, want)
				}
			}
		}
		drift := s.EnergyDriftCheck() // a collective: every core is here
		if scale := math.Max(1, math.Abs(s.enOld)); math.Abs(drift)/scale > 1e-6 {
			bad.printf("core %d step %d (%+v): tracked energy off by %g (E=%g)", s.rank, step, mv, drift, s.enOld)
		}
		if s.rank != 0 || mv == nil {
			return
		}
		step++
		acc := "rejected"
		if mv.accepted {
			acc = "accepted"
		}
		saw[mv.kind.String()+" "+acc] = true
		if mv.kind == moveDelete && mv.idx == mv.nBefore-1 {
			saw["delete of the last index "+acc] = true
		}
	})
	if bad != "" {
		t.Fatal(bad)
	}
	for _, want := range []string{
		"translate accepted", "translate rejected", "rotate accepted", "rotate rejected",
		"insert accepted", "insert rejected", "delete accepted", "delete rejected",
		"delete of the last index accepted", "delete of the last index rejected",
	} {
		if !saw[want] {
			t.Errorf("%d moves never had: %s", step, want)
		}
	}
}

// TestLongEnMemoIsExact: after every move, on every core, the F_local
// longEn would send - memo hit or re-sum, whichever the move left - is
// bit for bit the sum over the core's re-wrapped local atoms in
// (molecule, atom, k-vector) order against a table built from scratch.
func TestLongEnMemoIsExact(t *testing.T) {
	p := chainParams()
	kvecs := makeKVectors(p.BoxSide, p.Alpha, p.KMax, p.NumKVecs)
	saw := map[string]bool{}
	hits := 0
	var bad firstFailure
	runStepped(t, smallChip(), p, coreStack(core.ConfigBalanced), func(s *Simulation, mv *moveRecord) {
		from := append([][3]float64(nil), s.fFrom...)
		got, atoms := s.localF()
		if reflect.DeepEqual(from, s.fFrom) && mv != nil {
			hits++
		}
		want := make([]float64, 2*len(kvecs))
		local := 0
		for i := 0; i < s.n; i++ {
			if !s.isLocal(i) {
				continue
			}
			for a := 0; a < s.P.AtomsPerParticle; a++ {
				local++
				r := rewrapped(s, i, a)
				for k, kv := range kvecs {
					sin, cos := math.Sincos(kv.K[0]*r[0] + kv.K[1]*r[1] + kv.K[2]*r[2])
					want[2*k] += s.charges[a] * cos
					want[2*k+1] += s.charges[a] * sin
				}
			}
		}
		if atoms != local {
			bad.printf("core %d after %+v: %d local atoms counted, %d owned", s.rank, mv, atoms, local)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				bad.printf("core %d after %+v: F_local[%d] = %x, fresh sum %x", s.rank, mv, j, got[j], want[j])
			}
		}
		if mv == nil {
			return
		}
		last := mv.nBefore - 1
		switch {
		case mv.idx%s.procs == s.rank:
			saw["the owner of the moved molecule"] = true
		case mv.kind == moveDelete && mv.accepted && last%s.procs == s.rank && s.n <= s.rank:
			saw["the owner that loses its last molecule to a swap-delete"] = true
		case mv.kind == moveDelete && mv.accepted && last%s.procs == s.rank:
			saw["an owner that loses its last row to a swap-delete"] = true
		case s.n <= s.rank:
			saw["a core that owns nothing"] = true
		}
	})
	if bad != "" {
		t.Fatal(bad)
	}
	for _, want := range []string{
		"the owner of the moved molecule",
		"the owner that loses its last molecule to a swap-delete",
		"an owner that loses its last row to a swap-delete",
		"a core that owns nothing",
	} {
		if !saw[want] {
			t.Errorf("the chain never checked: %s", want)
		}
	}
	if hits == 0 {
		t.Error("the memo never stood in for a sum")
	}
}

// TestSharedKVectorsConcurrent: chips are built side by side by
// bench.Runner's workers; two parameter sets fighting over the one-entry
// memo must each always get their own complete table.
func TestSharedKVectorsConcurrent(t *testing.T) {
	type set struct {
		boxSide, alpha float64
		kmax, count    int
	}
	sets := []set{{12.0, 0.45, 8, 276}, {9.5, 0.6, 4, 64}}
	want := [][]KVec{
		makeKVectors(12.0, 0.45, 8, 276),
		makeKVectors(9.5, 0.6, 4, 64),
	}
	if cap(want[0]) != len(want[0]) {
		t.Errorf("makeKVectors keeps %d entries alive for %d", cap(want[0]), len(want[0]))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (g + i) % 2
				got := sharedKVectors(sets[k].boxSide, sets[k].alpha, sets[k].kmax, sets[k].count)
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d call %d: table for set %d is not makeKVectors'", g, i, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	a := sharedKVectors(12.0, 0.45, 8, 276)
	if b := sharedKVectors(12.0, 0.45, 8, 276); &a[0] != &b[0] {
		t.Error("the same parameters twice built two tables")
	}
}

// benchKernel times b.N calls of kernel on each of the 48 cores of one
// chip at the paper's size. Core 0 resets the timer once every core has
// built its Simulation (the first barrier).
func benchKernel(b *testing.B, kernel func(s *Simulation, i int)) {
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	chip.Launch(func(c *scc.Core) {
		s := New(c, CoreStack{Ctx: core.NewCtx(comm.UE(c.ID), core.ConfigBalanced)}, comm.NumUEs(), DefaultParams())
		s.comm.Barrier()
		if c.ID == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			kernel(s, i)
		}
	})
	if err := chip.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGCMCInitialEnergy is Run's first line: 4.66 M atom pairs and
// one structure-factor sum, chip-wide.
func BenchmarkGCMCInitialEnergy(b *testing.B) {
	benchKernel(b, func(s *Simulation, _ int) { s.totalEnergy() })
}

// BenchmarkGCMCLongEn is the pattern of a move: one molecule displaced,
// then the reciprocal-space energy - one owner re-sums, 47 cores reuse.
func BenchmarkGCMCLongEn(b *testing.B) {
	benchKernel(b, func(s *Simulation, i int) {
		m := s.trial
		copy(m, s.molAt(i%s.n))
		m[0][0] = wrap(m[0][0]+0.1, s.P.BoxSide)
		s.setMol(i%s.n, m)
		s.longEn()
	})
}
