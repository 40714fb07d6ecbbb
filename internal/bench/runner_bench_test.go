package bench

import (
	"testing"

	"scc/internal/core"
	"scc/internal/timing"
)

// BenchmarkAllreduce48 is the macro benchmark: one complete 48-core
// Allreduce simulation at the paper's application size (552 doubles,
// lightweight stack), including chip construction.
func BenchmarkAllreduce48(b *testing.B) {
	m := timing.Default()
	st := Stack{Name: "lightweight non-blocking", Cfg: core.ConfigLightweight}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Measure(m, OpAllreduce, st, 552, 1)
	}
}

// benchSizes is a reduced Fig. 9 x-axis so the panel benchmarks finish
// in seconds rather than minutes.
var benchSizes = []int{500, 508, 516}

// BenchmarkPanelSerial measures sweep throughput of the serial path over
// a reduced Allreduce panel (6 stacks x 3 sizes = 18 cells).
func BenchmarkPanelSerial(b *testing.B) {
	m := timing.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewRunner(1).Panel(m, OpAllreduce, benchSizes, 1)
	}
}

// BenchmarkPanelParallel measures the same panel through the worker
// pool at GOMAXPROCS; compare against BenchmarkPanelSerial for the
// host-parallel speedup.
func BenchmarkPanelParallel(b *testing.B) {
	m := timing.Default()
	r := NewRunner(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Panel(m, OpAllreduce, benchSizes, 1)
	}
}
