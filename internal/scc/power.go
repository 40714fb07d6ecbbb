package scc

import (
	"fmt"

	"scc/internal/simtime"
)

// DVFS support in the style of the SCC's RCCE_power API. The SCC derives
// each tile's clock from a 1600 MHz root through an integer divider
// (2..16); the standard preset's 533 MHz is divider 3. The simulator's
// tick is exactly one 1600 MHz period (0.625 ns), so a core at divider d
// simply takes d ticks per cycle - the baseline's 3 ticks/cycle falls
// out of the same arithmetic.
//
// Voltage follows frequency: the chip must run a divider at or above
// the minimum voltage for that speed. The pairs below approximate the
// SCC's published operating points; dynamic power is modeled as
// P ~ f * V^2 (normalized so the 533 MHz point is 1.0), integrated over
// compute time into a per-core energy estimate.
//
// Scope: the divider scales the core's *computation and software
// overhead* (everything charged in core cycles through Compute). The
// mesh and DRAM stay in their own 800 MHz domain, as on the real chip;
// the core-cycle component of MPB access latencies is kept at the
// standard preset (documented approximation - those numbers were
// published for the 533 MHz preset only).

// Frequency divider bounds (1600 MHz root clock).
const (
	MinFreqDivider     = 2  // 800 MHz
	MaxFreqDivider     = 16 // 100 MHz
	DefaultFreqDivider = 3  // 533 MHz, the paper's standard preset
)

// voltageFor returns the minimal supply voltage (volts) for a divider.
func voltageFor(div int) float64 {
	switch {
	case div <= 2:
		return 1.1
	case div == 3:
		return 0.9
	case div == 4:
		return 0.8
	case div <= 8:
		return 0.7
	default:
		return 0.6
	}
}

// SetFrequencyDivider changes the core's clock divider (RCCE_power-
// style). It panics on dividers outside [2,16]. Returns the new
// frequency in MHz.
func (c *Core) SetFrequencyDivider(div int) float64 {
	if div < MinFreqDivider || div > MaxFreqDivider {
		panic(fmt.Sprintf("scc: frequency divider %d outside [%d,%d]",
			div, MinFreqDivider, MaxFreqDivider))
	}
	c.freqDiv = uint8(div)
	return 1600.0 / float64(div)
}

// FrequencyDivider returns the active divider.
func (c *Core) FrequencyDivider() int {
	if c.freqDiv == 0 {
		return DefaultFreqDivider
	}
	return int(c.freqDiv)
}

// FrequencyMHz returns the core's current clock in MHz.
func (c *Core) FrequencyMHz() float64 { return 1600.0 / float64(c.FrequencyDivider()) }

// cycleDuration converts n core cycles at the core's own clock.
func (c *Core) cycleDuration(n int64) simtime.Duration {
	return simtime.Time(n) * simtime.Time(c.FrequencyDivider())
}

// relativePower returns dynamic power relative to the 533 MHz preset
// (P ~ f V^2).
func (c *Core) relativePower() float64 {
	div := c.FrequencyDivider()
	f := 1600.0 / float64(div)
	v := voltageFor(div)
	base := (1600.0 / 3) * 0.9 * 0.9
	return f * v * v / base
}

// EnergyEstimate returns the core's accumulated compute energy in
// preset-power-seconds (1.0 = one second of compute at the 533 MHz
// preset).
func (c *Core) EnergyEstimate() float64 { return c.energy }
