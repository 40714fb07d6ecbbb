package sccsim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"testing"

	sccsim "scc"
	"scc/internal/bench"
	"scc/internal/timing"
)

// Large-mesh determinism: the pooled process execution and sparse
// per-core state exist to make 2,500- and 10,000-core runs practical,
// but they must not cost reproducibility. These tests pin the digest of
// a Barrier + Broadcast + Allreduce program — every rank's numerical
// result and finish time plus the run's elapsed virtual time — as
// byte-identical across repeated runs and across sweep worker counts.

// largeMeshDigest runs the three collectives on a rows x cols mesh of
// single-core tiles with n-element vectors and hashes everything a user
// could observe. The tuned selector matters here: past the widest
// measured row it clamps to that row's picks (tree broadcast, recursive
// doubling), where the untuned paper heuristic would pick ring — O(np)
// steps that turn a 2,500-core run from seconds into minutes.
func largeMeshDigest(t *testing.T, rows, cols, n int) [sha256.Size]byte {
	t.Helper()
	skipUnderRace(t)
	sys := sccsim.New(sccsim.WithTopology(rows, cols, 1), sccsim.WithTuned())
	cores := rows * cols
	sums := make([]float64, cores) // disjoint per-rank slots
	ends := make([]int64, cores)
	res, err := sys.RunResult(func(r *sccsim.Rank) {
		src := r.AllocF64(n)
		bc := r.AllocF64(n)
		dst := r.AllocF64(n)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(r.ID()) + float64(i)*0.5
		}
		r.WriteF64s(src, v)
		r.WriteF64s(bc, v)
		if err := r.Barrier(); err != nil {
			t.Error(err)
			return
		}
		if err := r.Broadcast(0, bc, n); err != nil {
			t.Error(err)
			return
		}
		if err := r.Allreduce(src, dst, n); err != nil {
			t.Error(err)
			return
		}
		out := make([]float64, n)
		r.ReadF64s(dst, out)
		var s float64
		for _, x := range out {
			s += x
		}
		bv := make([]float64, n)
		r.ReadF64s(bc, bv)
		for _, x := range bv {
			s += 3 * x // fold the broadcast payload in, distinguishably
		}
		sums[r.ID()] = s
		ends[r.ID()] = int64(r.Now())
	})
	if err != nil {
		t.Fatalf("%dx%d run: %v", rows, cols, err)
	}
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, int64(res.Elapsed()))
	binary.Write(h, binary.LittleEndian, sums)
	binary.Write(h, binary.LittleEndian, ends)
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d
}

// skipUnderRace keeps the thousands-of-coroutines tests out of -race
// runs; CI's large-mesh-smoke job runs them without the detector.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("large-mesh run under the race detector (OOM at 16 GB); covered by the non-race large-mesh job")
	}
}

func TestLargeMeshDeterminism50x50(t *testing.T) {
	first := largeMeshDigest(t, 50, 50, 64)
	if again := largeMeshDigest(t, 50, 50, 64); again != first {
		t.Fatalf("50x50 same-seed digests differ:\n  %x\n  %x", first, again)
	}
}

func TestLargeMeshDeterminism100x100(t *testing.T) {
	if testing.Short() {
		t.Skip("10,000-core run in -short mode")
	}
	first := largeMeshDigest(t, 100, 100, 8)
	if again := largeMeshDigest(t, 100, 100, 8); again != first {
		t.Fatalf("100x100 same-seed digests differ:\n  %x\n  %x", first, again)
	}
}

// TestLargeMeshPanelAnyWorkerCount: the parallel sweep runner must
// produce byte-identical panels on a 2,500-core mesh whatever the
// worker count — the pooled trampoline workers underneath change which
// OS goroutine runs a simulated process, never what it computes.
func TestLargeMeshPanelAnyWorkerCount(t *testing.T) {
	skipUnderRace(t)
	model := timing.Topology(50, 50, 1)
	sizes := []int{8, 16}
	serial := bench.NewRunner(1).Panel(model, bench.OpBroadcast, sizes, 1)
	for _, workers := range []int{2, 4} {
		par := bench.NewRunner(workers).Panel(model, bench.OpBroadcast, sizes, 1)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("50x50 broadcast panel differs between 1 and %d workers", workers)
		}
	}
}

// TestLargeMeshFootprintBudget bounds the live heap per simulated core
// at the 10k-core scaling target (20.5 KB/core when the budget was set;
// 101.7 before the MPB page directory became pointer-free indices): a
// dense per-core structure creeping back in multiplies by 10,240 here
// long before anyone notices at 48 cores. The small geometries are
// bounded by TestFootprintBudget in internal/bench.
func TestLargeMeshFootprintBudget(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("10,240-core run in -short mode")
	}
	fp := bench.MeasureFootprint(timing.Topology(80, 128, 1))
	if fp.BarrierTicks <= 0 || fp.BroadcastTicks <= 0 {
		t.Fatalf("the chip did not synchronize: %+v", fp)
	}
	if limit := 40.0 * 1024; fp.BytesPerCore > limit {
		t.Fatalf("%d cores retain %.0f B/core, budget %.0f", fp.Cores, fp.BytesPerCore, limit)
	}
}
