package scc

// MPBPagesCut reports how many arena pages the chip's MPB writes have
// cut so far (for the external page-count test).
func MPBPagesCut(c *Chip) int { return c.mpb.nPages }
