//go:build race

package bench

// Under the race detector sync.Pool caches nothing and every allocation
// carries shadow state, so byte budgets on TotalAlloc do not hold.
func init() { raceEnabled = true }
