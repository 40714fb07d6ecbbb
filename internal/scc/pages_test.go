package scc_test

import (
	"testing"

	"scc/internal/core"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

// storageCut runs a small Broadcast on every core of a fresh 2,560-core
// chip, after a Barrier when barrier is set, and returns the MPB arena
// pages and leaves and the cache nodes the run cut.
func storageCut(t *testing.T, barrier bool) (pages, leaves, nodes int) {
	t.Helper()
	scc.DrainChipPool() // a recycled kit would bring its cache slabs along
	chip := scc.New(timing.Topology(40, 64, 1))
	defer chip.Release()
	comm := rcce.NewComm(chip)
	chip.Launch(func(c *scc.Core) {
		x := core.NewCtx(comm.UE(c.ID), core.ConfigLightweight)
		src := c.AllocF64(8)
		if barrier {
			x.Barrier()
		}
		x.Broadcast(0, src, 8)
		x.Release()
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	return scc.StorageCut(chip)
}

// TestMPBPagesAtScale bounds the MPB arena pages a 2,560-core Barrier +
// Broadcast cuts on a fresh chip. Page counts are deterministic, so the
// bound is the measurement itself: 4,158 pages of 512 B (2.1 MB). The
// same run cut 6,845 pages while the Barrier was RCCE's central one
// (every core's arrive flag in core 0's MPB, every release flag on core
// 0's line), and 7,468 pages of 4 KB (31 MB) when every flag region
// carried an 11-line membership bitmap. A layout or page-size change
// that spreads the flag working set over more pages fails here by
// count, where a heap delta would hide it in noise.
//
// The leaves naming those pages and the cache nodes the cores cut are
// pinned exactly: 3,587 leaves, and 20,488 nodes, one 8-node first slab
// per touched level (every core's L1; the root, which reads its source,
// also an L2). With a full 64-node first slab the same run cut 163,904.
//
// The tree barrier writes only on the writer lines the tree Broadcast
// already uses, so adding it must cut no page at all. The stage-once
// tree Broadcast cuts the same 4,158 pages the rendezvous one did: its
// release and ack share the sent and ready flags' lines, and only a
// core with children writes its data region.
func TestMPBPagesAtScale(t *testing.T) {
	const maxPages, wantLeaves, wantNodes = 4158, 3587, 20488
	both, leaves, nodes := storageCut(t, true)
	if both > maxPages {
		t.Errorf("2,560-core Barrier + Broadcast cut %d MPB pages, bound %d", both, maxPages)
	}
	if leaves != wantLeaves || nodes != wantNodes {
		t.Errorf("2,560-core Barrier + Broadcast cut %d MPB leaves and %d cache nodes, want %d and %d", leaves, nodes, wantLeaves, wantNodes)
	}
	if alone, _, _ := storageCut(t, false); both != alone {
		t.Errorf("Barrier + Broadcast cut %d MPB pages, Broadcast alone %d: the barrier touches lines the Broadcast does not", both, alone)
	}
}
