// Package sccsim is a simulator of Intel's Single-Chip Cloud Computer
// (SCC) together with the low-latency collective communication library
// of Kohler, Radetzki, Gschwandtner and Fahringer, "Low-Latency
// Collectives for the Intel SCC" (IEEE CLUSTER 2012).
//
// The package lets you run SPMD programs on a simulated 48-core SCC and
// measure collective communication the way the paper does:
//
//	sys := sccsim.New(sccsim.WithStack(sccsim.StackLightweightBalanced))
//	err := sys.Run(func(r *sccsim.Rank) {
//		src := r.AllocF64(552)
//		dst := r.AllocF64(552)
//		r.WriteF64s(src, myVector)
//		r.Allreduce(src, dst, 552)
//	})
//	fmt.Println(sys.Elapsed()) // virtual time on the simulated chip
//
// Six communication stacks are available, matching the paper's measured
// configurations: the blocking RCCE baseline, iRCCE non-blocking
// primitives, the paper's lightweight non-blocking primitives (with and
// without load-balanced block partitioning), the MPB-direct Allreduce,
// and the RCKMPI comparator.
//
// The chip itself is configurable. WithTopology(rows, cols,
// coresPerTile) simulates the same protocols on any rectangular mesh
// (the paper's chip is the 4×6×2 default, also reachable as a custom
// *timing.Model via WithModel), WithHardwareBugFixed applies the
// Sec. IV-D erratum ablation, and WithChips(k) joins k chips through
// the internal/fabric inter-chip bus, where Allreduce and Broadcast
// compose hierarchically (the dispatcher's composition, whose
// intra-chip phases WithAlgorithm or WithSelector steer) and the
// non-hierarchical collectives fail fast with ErrCrossChip.
//
// Collective algorithm selection is pluggable: WithAlgorithm pins one
// registered algorithm (a name that no collective registers makes Run
// return ErrInvalid; a call its algorithm does not serve falls back to
// the paper heuristic), WithTuned selects from a measured decision
// table, WithSelector installs any policy. Beyond the hand-written
// algorithms, internal/synth searches per-mesh schedules for
// Broadcast/Reduce/Allreduce and compiles the winners into registered
// algorithms named "synth:<op>:<np>:<bucket>" (see `sccbench -synth`
// and DESIGN.md §11).
//
// A run can be instrumented without changing its virtual-time result:
// construct the system with WithMetrics and execute programs with
// RunResult, then read the frozen counter snapshot off Result.Metrics
// (per-core phase split, MPB and cache traffic, per-link utilization,
// wait/hop histograms, per-collective breakdowns). The sccbench tool
// exposes the same data from the command line (-metrics, -metricsout)
// and can emit a Chrome Trace Event JSON (-tracejson) that loads
// directly into Perfetto; see the "Inspecting a run" section of the
// README. One sccbench invocation runs one mode: selecting two, or
// passing a flag the selected mode never reads, is a usage error (exit
// status 2), like any rejected flag value.
//
// The heavy lifting lives in the internal packages: internal/simtime
// (deterministic discrete-event engine; simulated processes are pooled
// coroutines, so a system must not be run from a goroutine that holds
// runtime.LockOSThread), internal/mesh (2D mesh NoC),
// internal/scc (cores, caches, message-passing buffers), internal/rcce
// (RCCE: one chunk state machine under the blocking, non-blocking and
// hardened point-to-point drivers),
// internal/core (the paper's optimized collectives and the transport
// table that prices iRCCE and the lightweight primitives),
// internal/rckmpi (the MPI comparator), internal/fabric (the inter-chip
// bus behind WithChips), internal/fault (deterministic fault injection
// behind WithFaults/WithRecovery/WithSelfHealing), internal/synth
// (schedule search and compilation), internal/gcmc (the thermodynamic
// application), internal/metrics (the zero-allocation counter registry
// behind WithMetrics), internal/trace (span recording and the
// Chrome-trace exporter) and internal/bench (the harness that
// regenerates every figure).
// DESIGN.md maps each to the paper; EXPERIMENTS.md records the
// reproduction outcomes. How much non-test Go all of this may take is a
// committed number: TestNonTestLineBudget fails when the count outgrows
// testdata/line_budget.txt.
package sccsim
