package scc_test

import (
	"testing"

	"scc/internal/core"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

// TestMPBPagesAtScale bounds the MPB arena pages a 2,560-core Barrier +
// Broadcast cuts. Page counts are deterministic, so the bound is the
// measurement itself: 6,845 pages of 512 B (3.5 MB). The same run cut
// 7,468 pages of 4 KB (31 MB) when every flag region carried an
// 11-line membership bitmap. A layout or page-size change that spreads
// the flag working set over more pages fails here by count, where a
// heap delta would hide it in noise.
func TestMPBPagesAtScale(t *testing.T) {
	const maxPages = 6845
	chip := scc.New(timing.Topology(40, 64, 1))
	defer chip.Release()
	comm := rcce.NewComm(chip)
	chip.Launch(func(c *scc.Core) {
		x := core.NewCtx(comm.UE(c.ID), core.ConfigLightweight)
		src := c.AllocF64(8)
		x.Barrier()
		x.Broadcast(0, src, 8)
		x.Release()
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	if got := scc.MPBPagesCut(chip); got > maxPages {
		t.Errorf("2,560-core Barrier + Broadcast cut %d MPB pages, bound %d", got, maxPages)
	}
}
