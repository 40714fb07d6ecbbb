package bench

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"scc/internal/core"
	"scc/internal/timing"
)

// CLI is the part of a command line the sweep commands (sccbench,
// faultbench) share: the geometry, worker-pool, profiling and -algo
// flags with their validation, the usage-error plumbing, and the profile
// start/stop around the run. A command embeds its own flags in the same
// FlagSet.
type CLI struct {
	*flag.FlagSet
	// Algo is the -algo value; each command says in algoUsage what it
	// pins and checks it with CheckAlgo against the op kind it sweeps.
	Algo *string

	mesh, chips, cpuprofile, memprofile *string
	parallel                            *int
}

// UsageError marks a rejected command line. Whoever made it has already
// printed the message and the usage text; Exit turns it into status 2.
type UsageError struct{ error }

// NewCLI declares the shared flags on a fresh FlagSet that returns
// errors instead of exiting, so a command's run function is testable.
func NewCLI(name, algoUsage, chipsUsage string) *CLI {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	return &CLI{
		FlagSet:    fs,
		Algo:       fs.String("algo", "", algoUsage),
		mesh:       fs.String("mesh", "", "mesh geometry as ROWSxCOLSxCORES_PER_TILE, e.g. 8x8x2 (default: the paper's 4x6x2 chip)"),
		chips:      fs.String("chips", "1", chipsUsage),
		parallel:   fs.Int("parallel", 0, "sweep worker-pool size; 0 = GOMAXPROCS, 1 = serial (output is identical at any value)"),
		cpuprofile: fs.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		memprofile: fs.String("memprofile", "", "write a heap profile at exit to this file"),
	}
}

// Parse parses args. -h comes back as flag.ErrHelp, anything the flag
// package rejects (and has reported) as a UsageError.
func (c *CLI) Parse(args []string) error {
	err := c.FlagSet.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return UsageError{err}
	}
	return err
}

// Fail reports a rejected command line — "<cmd>: <message>" and the
// usage text on the FlagSet's output — and returns it as a UsageError.
func (c *CLI) Fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	fmt.Fprintf(c.Output(), "%s: %v\n", c.Name(), err)
	c.Usage()
	return UsageError{err}
}

// ParseCounts parses the value of the list flag name: comma-separated
// non-negative integers, empty entries skipped.
func ParseCounts(name, list string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(list, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("%s entries must be non-negative integers, got %q", name, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// Geometry validates -mesh, -chips and -parallel and returns the timing
// model, the chip count and the sweep runner they describe.
func (c *CLI) Geometry() (*timing.Model, int, *Runner, error) {
	if *c.parallel < 0 {
		return nil, 0, nil, c.Fail("-parallel must be non-negative, got %d", *c.parallel)
	}
	model, err := ParseMeshSpec(*c.mesh)
	if err != nil {
		return nil, 0, nil, c.Fail("%v", err)
	}
	chips, err := ParseChips(*c.chips)
	if err != nil {
		return nil, 0, nil, c.Fail("%v", err)
	}
	return model, chips, NewRunner(*c.parallel), nil
}

// CheckAlgo rejects an -algo that is not registered for collective k.
func (c *CLI) CheckAlgo(k core.OpKind) error {
	if *c.Algo != "" && core.LookupAlgorithm(k, *c.Algo) == nil {
		return c.Fail("unknown %s algorithm %q (available: %s)",
			k, *c.Algo, strings.Join(core.AlgorithmNames(k), ", "))
	}
	return nil
}

// Profiled runs fn between the start and the stop of the -cpuprofile and
// -memprofile profiles; fn's error wins over a failure to write them.
func (c *CLI) Profiled(fn func() error) error {
	stop, err := StartProfiles(*c.cpuprofile, *c.memprofile)
	if err != nil {
		return err
	}
	err = fn()
	if perr := stop(); err == nil {
		err = perr
	}
	return err
}

// Exit ends a command's main with run's verdict: status 0 for success
// and -h, 2 for a UsageError (already reported), 1 with the message for
// anything else.
func Exit(name string, err error) {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, new(UsageError)):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// FirstDiff renders the first line on which two texts differ, quoting
// both sides, or returns "" when they are equal. The tests that hold a
// command to a committed output report a regeneration failure with it.
func FirstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	n := max(len(w), len(g)) // a missing line reads as ""
	w, g = append(w, make([]string, n-len(w))...), append(g, make([]string, n-len(g))...)
	for i := range n {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, w[i], g[i])
		}
	}
	return ""
}
