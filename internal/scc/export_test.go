package scc

// StorageCut reports the host storage the chip's run has cut so far: MPB
// arena pages and leaves, and cache nodes across every core's L1 and L2
// (for the external storage-pin test).
func StorageCut(c *Chip) (pages, leaves, nodes int) {
	for _, core := range c.Cores {
		for _, level := range [][][]cacheNode{core.l1.slabs, core.l2.slabs} {
			for _, s := range level {
				nodes += len(s)
			}
		}
	}
	return c.mpb.nPages, c.mpb.nLeaves, nodes
}
