// Command faultbench regenerates the robustness evaluation ("Fig. R1"):
// completion latency of a hardened full-chip Allreduce against the number
// of injected faults, for the blocking and lightweight transports. All
// faults are drawn deterministically from -seed, so two runs with the
// same flags produce bit-identical output.
//
// Examples:
//
//	faultbench                         # default sweep, 552 doubles
//	faultbench -seed 7 -n 1000         # different fault history and size
//	faultbench -faults 0,1,2,4,8,16,32 # denser fault axis
//	faultbench -jitter 4               # de-correlated retransmit storms
//	faultbench -selfheal               # Fig. R2: self-healing decomposition
//	faultbench -mesh 8x8x2 -selfheal   # the same sweep on a 128-core mesh
package main

import (
	"fmt"
	"io"
	"os"

	"scc/internal/bench"
	"scc/internal/core"
	"scc/internal/rcce"
	"scc/internal/simtime"
	"scc/internal/synth"
)

func main() { bench.Exit("faultbench", run(os.Args[1:], os.Stdout)) }

// run is the whole command: it parses args, runs the selected sweep and
// writes the tables to stdout (the package test diffs that output against
// results/fig_r1.txt and results/fig_r2.txt). A rejected command line
// comes back as a bench.UsageError, already reported on stderr.
func run(args []string, stdout io.Writer) error {
	fs := bench.NewCLI("faultbench",
		"pin the Allreduce to this registry algorithm (default: paper heuristic)",
		"chips joined by the inter-chip fabric (the fault and self-healing sweeps are single-chip, so only 1 is accepted)")
	fail, algo := fs.Fail, fs.Algo
	seed := fs.Int64("seed", 1, "fault-plan seed (same seed: bit-identical output)")
	n := fs.Int("n", 552, "vector size in doubles (552 is the paper's thermodynamic application)")
	faultsFlag := fs.String("faults", "0,1,2,4,8,16", "comma-separated fault counts to sweep")
	timeoutUs := fs.Int64("timeout", 300, "retransmit timeout in microseconds")
	retries := fs.Int("retries", 8, "retransmit attempts before a peer is declared unreachable")
	jitter := fs.Int("jitter", 0, "deterministic retransmit jitter (0 = none; 4 stretches backed-off windows by up to 25%)")
	selfheal := fs.Bool("selfheal", false, "run the self-healing sweep (Fig. R2) instead of the fault-count sweep: one core killed mid-Allreduce, detection/agreement/recovery decomposed per algorithm")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Synthesized schedules are selectable with -algo synth:<op>:<np>:<bucket>.
	synth.RegisterDefaults()

	if *n < 1 {
		return fail("-n must be at least 1, got %d", *n)
	}
	if *timeoutUs < 1 {
		return fail("-timeout must be at least 1us, got %d", *timeoutUs)
	}
	if *retries < 1 {
		return fail("-retries must be at least 1, got %d", *retries)
	}
	counts, err := bench.ParseCounts("-faults", *faultsFlag)
	if err != nil {
		return fail("%v", err)
	}
	if len(counts) == 0 {
		return fail("-faults must list at least one count")
	}
	if *jitter < 0 {
		return fail("-jitter must be non-negative, got %d", *jitter)
	}
	model, nChips, runner, err := fs.Geometry()
	if err != nil {
		return err
	}
	if nChips != 1 {
		return fail("-chips=%d: the fault and self-healing sweeps are single-chip; use sccbench for hierarchical panels", nChips)
	}
	if err := fs.CheckAlgo(core.KindAllreduce); err != nil {
		return err
	}
	if *algo == "mpb" {
		fmt.Fprintln(fs.Output(), "faultbench: note: \"mpb\" is not applicable under the hardened protocol; the sweep falls back to the paper heuristic")
	}
	return fs.Profiled(func() error {
		pol := rcce.Policy{Timeout: simtime.Microseconds(*timeoutUs), MaxRetries: *retries, Jitter: *jitter}
		transports := []core.TransportKind{core.TransportBlocking, core.TransportLightweight}

		if *selfheal {
			heal := core.DefaultHealPolicy()
			heal.Detect.Jitter = *jitter
			algos := core.AlgorithmNames(core.KindAllreduce)
			fracs := []float64{0.25, 0.5, 0.75}
			fmt.Fprintf(stdout, "Fig. R2: self-healing Allreduce, %d cores (%s), %d doubles, core %d killed mid-collective\n",
				model.NumCores(), bench.MeshLabel(model, 1), *n, bench.HealVictimFor(model.NumCores()))
			fmt.Fprintln(stdout, "(no oracle: in-band detection, agreed membership, epoched re-execution;")
			fmt.Fprintln(stdout, " plain = hardened stack fault-free, oracle = survivors known for free,")
			fmt.Fprintln(stdout, " total = end-to-end with the kill, killat in fractions of each algo's plain run)")
			fmt.Fprintln(stdout)
			for _, kind := range transports {
				points := runner.SelfHealSweep(model, kind, heal, algos, *n, fracs)
				if err := bench.WriteHealTable(stdout, "transport: "+kind.String(), points); err != nil {
					return err
				}
				fmt.Fprintln(stdout)
			}
			return nil
		}

		fmt.Fprintf(stdout, "Fig. R1: hardened Allreduce, %d cores (%s), %d doubles, seed %d\n",
			model.NumCores(), bench.MeshLabel(model, 1), *n, *seed)
		fmt.Fprintf(stdout, "(completion latency vs injected fault count; timeout %dus, %d retries)\n", *timeoutUs, *retries)
		if *algo != "" {
			fmt.Fprintf(stdout, "(allreduce algorithm pinned: %s)\n", *algo)
		}
		fmt.Fprintln(stdout)
		for _, kind := range transports {
			points := runner.FaultSweepAlgo(model, kind, pol, *algo, *seed, *n, counts)
			if err := bench.WriteFaultTable(stdout, "transport: "+kind.String(), points); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		return nil
	})
}
