package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"scc/internal/core"
	"scc/internal/mesh"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// This file is the simulator's wall-clock self-benchmark: where the rest
// of the package measures virtual time inside the simulation, SelfBench
// measures how fast the simulator itself runs on the host. It feeds the
// repo's perf trajectory (BENCH_sim.json) so throughput regressions are
// visible across commits.

// SelfBenchResult is one record of the self-benchmark report.
type SelfBenchResult struct {
	// Name identifies the measured path, e.g. "mesh.Transfer" or
	// "panel.parallel".
	Name string `json:"name"`
	// Ops is how many operations the measured loop executed.
	Ops int64 `json:"ops"`
	// NsPerOp is host wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// WallMs is the total wall-clock time of the measured loop.
	WallMs float64 `json:"wall_ms"`
	// BytesPerCore is heap bytes retained per simulated core; only set
	// for footprint records (see MeasureFootprint).
	BytesPerCore float64 `json:"bytes_per_core,omitempty"`
	// CellsPerSec is sweep throughput in panel cells (one (op, stack, n)
	// simulation) per second; only set for panel records.
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
	// Workers is the pool size used; only set for panel records.
	Workers int `json:"workers,omitempty"`
	// SpeedupVsSerial compares the parallel panel against the serial one
	// from the same report; only set on the parallel record.
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

// measureLoop times fn, which must perform ops operations, and reports
// wall clock and allocation counts around it.
func measureLoop(name string, ops int64, fn func()) SelfBenchResult {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return SelfBenchResult{
		Name:        name,
		Ops:         ops,
		NsPerOp:     float64(wall.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
		WallMs:      float64(wall.Nanoseconds()) / 1e6,
	}
}

// SelfBench measures the simulator's host-side throughput at three
// levels: the mesh-transfer micro path, the event loop, one full 48-core
// Allreduce, and a reduced Fig. 9 panel swept serially and then with a
// workers-wide pool. It returns one record per measurement.
func SelfBench(model *timing.Model, workers int) []SelfBenchResult {
	var out []SelfBenchResult

	// Micro: the mesh hot path. Destinations cycle over the whole mesh so
	// the walk lengths vary like real traffic.
	const transfers = 2_000_000
	net := mesh.New(model)
	out = append(out, measureLoop("mesh.Transfer", transfers, func() {
		var at simtime.Time
		for i := 0; i < transfers; i++ {
			at = net.Transfer(mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: i % model.MeshWidth, Y: (i / model.MeshWidth) % model.MeshHeight}, 256, at)
		}
	}))

	// Micro: the event loop, one process per core ping-ponging through
	// the queue.
	const sleepsPerProc = 10_000
	nCores := model.NumCores()
	eng := simtime.NewEngine()
	for p := 0; p < nCores; p++ {
		eng.Spawn("bench", func(p *simtime.Proc) {
			for i := 0; i < sleepsPerProc; i++ {
				p.Sleep(3)
			}
		})
	}
	out = append(out, measureLoop("simtime.EventLoop", int64(nCores)*sleepsPerProc, func() {
		if err := eng.Run(); err != nil {
			panic(fmt.Sprintf("selfbench event loop: %v", err))
		}
	}))

	// Micro: the pure process switch. Two processes whose wake-ups
	// strictly alternate, so every event pays a yield to the dispatcher
	// and a resume of the other process and there are zero fast-path
	// hits — the scheduler's floor when control must change processes.
	const handoffs = 1_000_000
	heng := simtime.NewEngine()
	heng.Spawn("a", func(p *simtime.Proc) {
		p.Sleep(1)
		for i := 0; i < handoffs/2; i++ {
			p.Sleep(2)
		}
	})
	heng.Spawn("b", func(p *simtime.Proc) {
		for i := 0; i < handoffs/2; i++ {
			p.Sleep(2)
		}
	})
	out = append(out, measureLoop("simtime.Handoff", handoffs, func() {
		if err := heng.Run(); err != nil {
			panic(fmt.Sprintf("selfbench handoff: %v", err))
		}
	}))

	// Micro: the same-proc fast path. A single process sleeping against an
	// empty queue advances the clock inline — no queue, no switch.
	const fastSleeps = 20_000_000
	feng := simtime.NewEngine()
	feng.Spawn("solo", func(p *simtime.Proc) {
		for i := 0; i < fastSleeps; i++ {
			p.Sleep(3)
		}
	})
	out = append(out, measureLoop("simtime.SameProcFastPath", fastSleeps, func() {
		if err := feng.Run(); err != nil {
			panic(fmt.Sprintf("selfbench fast path: %v", err))
		}
	}))

	// Macro: one full-chip Allreduce at the paper's application size.
	// The record name is a stable BENCH_sim.json key (named for the
	// default 48-core chip), so it does not vary with the model.
	lw := Stack{Name: "lightweight non-blocking", Cfg: core.ConfigLightweight}
	out = append(out, measureLoop("chip.Allreduce48", 1, func() {
		Measure(model, OpAllreduce, lw, 552, 1)
	}))

	// Macro: a reduced Fig. 9 Allreduce panel, serial then parallel. The
	// parallel run must produce byte-identical series (the runner tests
	// prove it), so the only difference is wall clock.
	sizes := Sizes(500, 540, 8)
	cells := int64(len(StacksFor(OpAllreduce)) * len(sizes))
	serial := measureLoop("panel.serial", cells, func() {
		Panel(model, OpAllreduce, sizes, 1)
	})
	serial.Workers = 1
	serial.CellsPerSec = float64(cells) / (serial.WallMs / 1e3)
	out = append(out, serial)

	r := NewRunner(workers)
	par := measureLoop("panel.parallel", cells, func() {
		r.Panel(model, OpAllreduce, sizes, 1)
	})
	par.Workers = r.workers()
	par.CellsPerSec = float64(cells) / (par.WallMs / 1e3)
	par.SpeedupVsSerial = serial.WallMs / par.WallMs
	out = append(out, par)

	// Footprint: heap bytes per simulated core at the tracked chip
	// sizes, so a dense per-core structure creeping back in fails the
	// gate long before anyone tries a 10k-core run.
	out = append(out, SelfBenchFootprints()...)

	return out
}

// WriteSelfBench emits the report as an indented JSON array, the format
// of the repo's BENCH_*.json perf-trajectory files.
func WriteSelfBench(w io.Writer, results []SelfBenchResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// ReadSelfBench parses a report written by WriteSelfBench.
func ReadSelfBench(r io.Reader) ([]SelfBenchResult, error) {
	var results []SelfBenchResult
	if err := json.NewDecoder(r).Decode(&results); err != nil {
		return nil, fmt.Errorf("bench: parsing self-benchmark report: %w", err)
	}
	return results, nil
}

// GateSelfBench compares a fresh report against a committed baseline and
// returns one violation per entry whose ns_per_op or allocs_per_op
// regressed by more than tol (0.15 = 15% slack). Entries present in only
// one report are ignored, so the benchmark set can evolve; a baseline
// value of zero gates on an absolute slack of 1 instead of a ratio.
func GateSelfBench(baseline, current []SelfBenchResult, tol float64) []string {
	base := make(map[string]SelfBenchResult, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	var violations []string
	check := func(name, metric string, old, now float64) {
		limit := old * (1 + tol)
		if old <= 0 {
			limit = 1
		}
		if now > limit {
			violations = append(violations,
				fmt.Sprintf("%s: %s regressed %.1f -> %.1f (limit %.1f)", name, metric, old, now, limit))
		}
	}
	for _, r := range current {
		b, ok := base[r.Name]
		if !ok {
			continue
		}
		check(r.Name, "ns_per_op", b.NsPerOp, r.NsPerOp)
		check(r.Name, "allocs_per_op", b.AllocsPerOp, r.AllocsPerOp)
		// A zero baseline here means the record predates footprint
		// tracking (or GC noise swallowed the delta), not a 1-byte
		// budget. The ratio check gets a 4 KB/core absolute floor on
		// top: on a small chip the total delta is a few hundred KB and
		// one stray pooled buffer shifts the per-core number by
		// kilobytes, while the regressions this gate exists for — a
		// dense per-core structure creeping back in — are 10-100x.
		if b.BytesPerCore > 0 {
			if limit := b.BytesPerCore*(1+tol) + 4096; r.BytesPerCore > limit {
				violations = append(violations,
					fmt.Sprintf("%s: bytes_per_core regressed %.1f -> %.1f (limit %.1f)",
						r.Name, b.BytesPerCore, r.BytesPerCore, limit))
			}
		}
	}
	return violations
}
