//go:build race

package main

// Under the race detector the full-sweep regeneration of
// results/fig9f_plot.txt skips itself; the ablation gate and the
// usage-error cases still run.
func init() { raceEnabled = true }
