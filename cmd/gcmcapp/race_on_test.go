//go:build race

package main

// Under the race detector the 40-cycle regeneration of results/fig10.txt
// skips itself; the usage-error cases still run.
func init() { raceEnabled = true }
