package bench

import (
	"fmt"
	"runtime"
	"time"

	"scc/internal/core"
	"scc/internal/fabric"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// This file measures the simulator's host-side memory footprint: how
// many heap bytes one simulated core costs once the chip has actually
// run a collective. The number is the scaling budget — at 10,000 cores,
// every dense per-core structure multiplies by 10,000 — so
// TestFootprintBudget bounds it at three chip sizes.

// FootprintResult reports one footprint measurement.
type FootprintResult struct {
	// Cores is the simulated chip's core count.
	Cores int `json:"cores"`
	// LiveBytes is the heap retained by the chip, comm layer, and run
	// residue after a full GC, with the chip still referenced.
	LiveBytes uint64 `json:"live_bytes"`
	// BytesPerCore is LiveBytes / Cores.
	BytesPerCore float64 `json:"bytes_per_core"`
	// PeakHeapMB is the high-water HeapAlloc observed right after the
	// run, before the post-run GC.
	PeakHeapMB float64 `json:"peak_heap_mb"`
	// AllocBytes is the heap allocated over build and run (the
	// TotalAlloc delta), freed or not: what a fresh chip costs the
	// allocator and the collector.
	AllocBytes uint64 `json:"alloc_bytes"`
	// WallMs is the host wall-clock time of build + run.
	WallMs float64 `json:"wall_ms"`
	// BarrierTicks / BroadcastTicks are the virtual latencies of the
	// measured collectives (a cheap cross-check that the big chip
	// actually synchronized).
	BarrierTicks   simtime.Duration `json:"barrier_ticks"`
	BroadcastTicks simtime.Duration `json:"broadcast_ticks"`
}

// MeasureFootprint builds a chip for the model, runs one Barrier and one
// small Broadcast on every core through the lightweight stack, and
// reports the heap retained per simulated core.
//
// Goroutine stacks are not part of HeapAlloc, so the number isolates the
// simulator's data structures; the pooled process workers are accounted
// for by the scheduler benchmarks instead.
//
// The chip pool is drained first: a chip built on storage that is
// already in the baseline would seem to cost nothing.
func MeasureFootprint(model *timing.Model) FootprintResult {
	scc.DrainChipPool()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()

	sys := fabric.New(model, 1)
	defer sys.Release() // after the last reading: the chip is what is measured
	var barrier, bcast simtime.Duration
	sys.Launch(func(_ int, c *scc.Core) {
		x := core.NewCtx(sys.Comms[0].UE(c.ID), core.ConfigLightweight)
		src := c.AllocF64(8)
		begin := c.Now()
		x.Barrier()
		mid := c.Now()
		x.Broadcast(0, src, 8)
		end := c.Now()
		if c.ID == 0 {
			barrier = mid - begin
			bcast = end - mid
		}
		x.Release()
	})
	if err := sys.Run(); err != nil {
		panic(fmt.Sprintf("bench: footprint run on %d cores: %v", model.NumCores(), err))
	}
	wall := time.Since(t0)

	var peak runtime.MemStats
	runtime.ReadMemStats(&peak)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	cores := sys.NumCores() // keeps the chip live across the GC above
	live := after.HeapAlloc - before.HeapAlloc
	if after.HeapAlloc < before.HeapAlloc {
		live = 0 // GC reclaimed more than the chip costs; footprint is noise
	}
	return FootprintResult{
		Cores:          cores,
		LiveBytes:      live,
		BytesPerCore:   float64(live) / float64(cores),
		PeakHeapMB:     float64(peak.HeapAlloc) / (1 << 20),
		AllocBytes:     peak.TotalAlloc - before.TotalAlloc,
		WallMs:         float64(wall.Nanoseconds()) / 1e6,
		BarrierTicks:   barrier,
		BroadcastTicks: bcast,
	}
}
