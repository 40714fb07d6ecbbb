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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"scc/internal/bench"
	"scc/internal/core"
	"scc/internal/rcce"
	"scc/internal/simtime"
	"scc/internal/synth"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, new(usageError)):
		os.Exit(2) // already reported, with the usage text
	default:
		fmt.Fprintln(os.Stderr, "faultbench:", err)
		os.Exit(1)
	}
}

// usageError marks a rejected command line; run has already printed the
// message and the usage text to stderr.
type usageError struct{ error }

// run is the whole command: it parses args, runs the selected sweep and
// writes the tables to stdout (the package test diffs that output against
// results/fig_r1.txt and results/fig_r2.txt).
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("faultbench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "fault-plan seed (same seed: bit-identical output)")
	n := fs.Int("n", 552, "vector size in doubles (552 is the paper's thermodynamic application)")
	faultsFlag := fs.String("faults", "0,1,2,4,8,16", "comma-separated fault counts to sweep")
	algo := fs.String("algo", "", "pin the Allreduce to this registry algorithm (default: paper heuristic)")
	timeoutUs := fs.Int64("timeout", 300, "retransmit timeout in microseconds")
	retries := fs.Int("retries", 8, "retransmit attempts before a peer is declared unreachable")
	jitter := fs.Int("jitter", 0, "deterministic retransmit jitter (0 = none; 4 stretches backed-off windows by up to 25%)")
	selfheal := fs.Bool("selfheal", false, "run the self-healing sweep (Fig. R2) instead of the fault-count sweep: one core killed mid-Allreduce, detection/agreement/recovery decomposed per algorithm")
	parallel := fs.Int("parallel", 0, "sweep worker-pool size; 0 = GOMAXPROCS, 1 = serial (output is identical at any value)")
	meshSpec := fs.String("mesh", "", "mesh geometry as ROWSxCOLSxCORES_PER_TILE, e.g. 8x8x2 (default: the paper's 4x6x2 chip)")
	chipsSpec := fs.String("chips", "1", "chips joined by the inter-chip fabric (the fault and self-healing sweeps are single-chip, so only 1 is accepted)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}

	// Synthesized schedules are selectable with -algo synth:<op>:<np>:<bucket>.
	synth.RegisterDefaults()

	fail := func(format string, args ...any) error {
		err := fmt.Errorf(format, args...)
		fmt.Fprintln(fs.Output(), "faultbench:", err)
		fs.Usage()
		return usageError{err}
	}
	if *n < 1 {
		return fail("-n must be at least 1, got %d", *n)
	}
	if *timeoutUs < 1 {
		return fail("-timeout must be at least 1us, got %d", *timeoutUs)
	}
	if *retries < 1 {
		return fail("-retries must be at least 1, got %d", *retries)
	}
	counts, err := parseCounts(*faultsFlag)
	if err != nil {
		return fail("%v", err)
	}
	if *parallel < 0 {
		return fail("-parallel must be non-negative, got %d", *parallel)
	}
	if *jitter < 0 {
		return fail("-jitter must be non-negative, got %d", *jitter)
	}
	model, err := bench.ParseMeshSpec(*meshSpec)
	if err != nil {
		return fail("%v", err)
	}
	nChips, err := bench.ParseChips(*chipsSpec)
	if err != nil {
		return fail("%v", err)
	}
	if nChips != 1 {
		return fail("-chips=%d: the fault and self-healing sweeps are single-chip; use sccbench for hierarchical panels", nChips)
	}
	if *algo != "" {
		if core.LookupAlgorithm(core.KindAllreduce, *algo) == nil {
			return fail("unknown allreduce algorithm %q (available: %s)",
				*algo, strings.Join(core.AlgorithmNames(core.KindAllreduce), ", "))
		}
		if *algo == "mpb" {
			fmt.Fprintln(fs.Output(), "faultbench: note: \"mpb\" is not applicable under the hardened protocol; the sweep falls back to the paper heuristic")
		}
	}

	stopProfiles, err := bench.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()

	runner := bench.NewRunner(*parallel)
	pol := rcce.Policy{Timeout: simtime.Microseconds(*timeoutUs), Backoff: 2, MaxRetries: *retries, Jitter: *jitter}
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
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("-faults entries must be non-negative integers, got %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-faults must list at least one count")
	}
	return out, nil
}
