// Command timeline reproduces the paper's protocol diagrams (Figs. 4
// and 5) as ASCII timelines: it runs a few rounds of the cyclic ring
// exchange on neighboring cores under the blocking odd-even scheme and
// under the non-blocking primitives, recording when each core copies
// (P/G), waits (.), and computes, and renders one row per core.
//
// The blocking rendering shows the barrier-like serialization of the
// two operations per round; the non-blocking one shows the copies
// overlapping across cores.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"scc/internal/bench"
	"scc/internal/core"
	"scc/internal/fabric"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
	"scc/internal/trace"
)

func main() { bench.Exit("timeline", run(os.Args[1:], os.Stdout)) }

// run is the whole command: both schemes' timelines on stdout and, with
// -chrome, their spans as one Chrome trace.
func run(args []string, stdout io.Writer) error {
	fs := bench.CLI{FlagSet: flag.NewFlagSet("timeline", flag.ContinueOnError)}
	rounds := fs.Int("rounds", 3, "ring rounds to trace")
	nElems := fs.Int("n", 64, "doubles exchanged per round")
	width := fs.Int("width", 100, "timeline width in characters")
	cores := fs.Int("cores", 4, "how many cores' rows to record (the ring still spans the whole chip)")
	chrome := fs.String("chrome", "", "also write the recorded spans as Chrome Trace Event JSON to this file (both schemes back to back, loadable in Perfetto)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch np := timing.Default().NumCores(); {
	case *rounds < 1:
		return fs.Fail("-rounds must be at least 1, got %d", *rounds)
	case *nElems < 0:
		return fs.Fail("-n must be non-negative, got %d", *nElems)
	case *cores < 1 || *cores > np:
		return fs.Fail("-cores must be in [1,%d], got %d", np, *cores)
	case *width < 10: // the renderer's narrowest row
		return fs.Fail("-width must be at least 10, got %d", *width)
	}

	// Both schemes run on fresh chips starting at virtual t=0, so for the
	// combined Chrome trace the second scheme is shifted past the end of
	// the first: one timeline, blocking then non-blocking, same threads.
	var chromeSpans []trace.Span
	var chromeOffset simtime.Time
	for _, kind := range []core.TransportKind{core.TransportBlocking, core.TransportLightweight} {
		fmt.Fprintf(stdout, "=== %s ring exchange (%d rounds of %d doubles) ===\n", kind, *rounds, *nElems)
		rec, err := runRing(kind, *rounds, *nElems, *cores)
		if err != nil {
			return err
		}
		if *chrome != "" {
			var maxEnd simtime.Time
			for _, s := range rec.Spans() {
				s.Label = fmt.Sprintf("%s [%s]", s.Label, kind)
				s.Start += chromeOffset
				s.End += chromeOffset
				chromeSpans = append(chromeSpans, s)
				if s.End > maxEnd {
					maxEnd = s.End
				}
			}
			chromeOffset = maxEnd + simtime.Microseconds(5)
		}
		if err := trace.Render(stdout, rec.Spans(), *width); err != nil {
			return err
		}
		shares := trace.WaitShare(rec.Spans())
		fmt.Fprintf(stdout, "  wait share:")
		for id := 0; id < *cores; id++ {
			fmt.Fprintf(stdout, "  core%d %4.0f%%", id, 100*shares[id])
		}
		fmt.Fprint(stdout, "\n\n")
	}
	_, err := fmt.Fprint(stdout, `Compare with the paper's Fig. 4 (blocking odd-even: the second operation
cannot start until all cores finished the first) and Fig. 5 (non-blocking:
isend and irecv posted together, copies overlap, one sync per round).
`)
	if *chrome == "" || err != nil {
		return err
	}
	f, err := os.Create(*chrome)
	if err != nil {
		return err
	}
	werr := trace.WriteChromeTrace(f, chromeSpans, map[string]any{
		"rounds": *rounds, "n": *nElems,
		"note": "blocking ring exchange first, then the lightweight non-blocking one, separated by a 5us gap",
	})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		_, werr = fmt.Fprintf(stdout, "wrote %s (open in https://ui.perfetto.dev or chrome://tracing)\n", *chrome)
	}
	return werr
}

// runRing executes the ring rounds and returns the recorded spans of the
// first `record` cores.
func runRing(kind core.TransportKind, rounds, nElems, record int) (*trace.Recorder, error) {
	sys := fabric.New(timing.Default(), 1)
	defer sys.Release()
	rec := &trace.Recorder{}
	sys.Launch(func(_ int, c *scc.Core) {
		if c.ID < record {
			c.SetSpanRecorder(rec.Hook(c.ID))
		}
		ue := sys.Comms[0].UE(c.ID)
		ep := core.NewCtx(ue, core.Config{Transport: kind}).Endpoint()
		p := ue.NumUEs()
		right, left := (c.ID+1)%p, (c.ID+p-1)%p
		src, dst := c.AllocF64(nElems), c.AllocF64(nElems)
		ue.Barrier()
		for r := 0; r < rounds; r++ {
			ep.Exchange(right, src, 8*nElems, left, dst, 8*nElems)
		}
	})
	return rec, sys.Run()
}
