//go:build race

package sccsim_test

// raceEnabled reports whether the test binary was built with -race. The
// 10,000-coroutine LargeMesh tests skip under it: the detector's
// per-goroutine state takes them past 16 GB.
const raceEnabled = true
