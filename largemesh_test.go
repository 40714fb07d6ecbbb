package sccsim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"reflect"
	"runtime"
	"testing"

	sccsim "scc"
	"scc/internal/bench"
	"scc/internal/scc"
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

// tenKSide returns the mesh side a 10,000-core test runs at: side when
// LARGE_MESH_10K is set, which CI's large-mesh-smoke job does, as
// CHAOS_SOAK_SEEDS widens the chaos soak; half of it otherwise, so the
// same check runs on a quarter of the cores, in seconds instead of half
// a minute.
func tenKSide(side int) int {
	if os.Getenv("LARGE_MESH_10K") != "" {
		return side
	}
	return side / 2
}

func TestLargeMeshDeterminism100x100(t *testing.T) {
	side := tenKSide(100)
	first := largeMeshDigest(t, side, side, 8)
	if again := largeMeshDigest(t, side, side, 8); again != first {
		t.Fatalf("%dx%d same-seed digests differ:\n  %x\n  %x", side, side, first, again)
	}
}

// TestLargeMeshPanelAnyWorkerCount: the parallel sweep runner must
// produce byte-identical panels on a 2,500-core mesh whatever the
// worker count — the pooled trampoline workers underneath change which
// OS goroutine runs a simulated process, never what it computes. Every
// live worker holds a whole 2,500-core chip, which the per-op staging
// extents keep to tens of megabytes, so four at once fit beside the rest
// of the suite.
func TestLargeMeshPanelAnyWorkerCount(t *testing.T) {
	skipUnderRace(t)
	model := timing.Topology(50, 50, 1)
	sizes := []int{8, 16}
	serial := bench.NewRunner(1).Panel(model, bench.OpBroadcast, sizes, 1)
	for _, workers := range []int{2, 4} {
		if par := bench.NewRunner(workers).Panel(model, bench.OpBroadcast, sizes, 1); !reflect.DeepEqual(serial, par) {
			t.Fatalf("50x50 broadcast panel differs between 1 and %d workers", workers)
		}
	}
}

// TestLargeMeshCellAllocation bounds what one 2,500-core Fig. 9 cell —
// a 16-double Broadcast, built from an empty chip pool — allocates: 47
// MB, nearly all of it the chip. When every op staged n·np doubles in
// src and in dst it was 1.8 GB, buffers the Broadcast never reads.
func TestLargeMeshCellAllocation(t *testing.T) {
	skipUnderRace(t)
	defer scc.DrainChipPool()
	scc.DrainChipPool()
	st := bench.StacksFor(bench.OpBroadcast)[3] // lightweight non-blocking
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bench.Measure(timing.Topology(50, 50, 1), bench.OpBroadcast, st, 16, 1)
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 100 {
		t.Errorf("broadcast/%s n=16 on 2,500 cores allocates %.1f MB, budget 100", st.Name, mb)
	} else {
		t.Logf("%.1f MB", mb)
	}
}

// TestLargeMeshFootprintBudget bounds the live heap per simulated core
// at the 10k-core scaling target: a dense per-core structure creeping
// back in multiplies by 10,240 here long before anyone notices at 48
// cores. The budget is 4 KB/core: 3,967 B/core at 10,240 cores and
// 3,941 at 2,560 (the same in each of 3 and 10 fresh processes) since a
// cache level's first slab is 8 nodes, ~400 KB above at 2,560. It was
// 10 KB/core over 7.0 and 6.8 while every level cut a 64-node first
// slab, 20.5 KB/core with per-writer membership bitmaps and 4 KB pages,
// 101.7 before the MPB page directory became pointer-free indices.
// Without LARGE_MESH_10K it checks 2,560 cores against the same
// budget. The small geometries are bounded by TestFootprintBudget in
// internal/bench.
func TestLargeMeshFootprintBudget(t *testing.T) {
	skipUnderRace(t)
	fp := bench.MeasureFootprint(timing.Topology(tenKSide(80), tenKSide(128), 1))
	if fp.BarrierTicks <= 0 || fp.BroadcastTicks <= 0 {
		t.Fatalf("the chip did not synchronize: %+v", fp)
	}
	if limit := 4.0 * 1024; fp.BytesPerCore > limit {
		t.Fatalf("%d cores retain %.0f B/core, budget %.0f", fp.Cores, fp.BytesPerCore, limit)
	}
	t.Logf("%d cores retain %.0f B/core", fp.Cores, fp.BytesPerCore)
}
