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
	"os"

	"scc/internal/core"
	"scc/internal/fabric"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
	"scc/internal/trace"
)

func main() {
	rounds := flag.Int("rounds", 3, "ring rounds to trace")
	nElems := flag.Int("n", 64, "doubles exchanged per round")
	width := flag.Int("width", 100, "timeline width in characters")
	cores := flag.Int("cores", 4, "how many cores' rows to record (the ring still spans the whole chip)")
	chrome := flag.String("chrome", "", "also write the recorded spans as Chrome Trace Event JSON to this file (both schemes back to back, loadable in Perfetto)")
	flag.Parse()

	// Both schemes run on fresh chips starting at virtual t=0, so for the
	// combined Chrome trace the second scheme is shifted past the end of
	// the first: one timeline, blocking then non-blocking, same threads.
	var chromeSpans []trace.Span
	var chromeOffset simtime.Time
	for _, kind := range []core.TransportKind{core.TransportBlocking, core.TransportLightweight} {
		fmt.Printf("=== %s ring exchange (%d rounds of %d doubles) ===\n", kind, *rounds, *nElems)
		rec := runRing(kind, *rounds, *nElems, *cores)
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
		if err := trace.Render(os.Stdout, rec.Spans(), *width); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		shares := trace.WaitShare(rec.Spans())
		fmt.Printf("  wait share:")
		for id := 0; id < *cores; id++ {
			fmt.Printf("  core%d %4.0f%%", id, 100*shares[id])
		}
		fmt.Print("\n\n")
	}
	fmt.Println("Compare with the paper's Fig. 4 (blocking odd-even: the second operation")
	fmt.Println("cannot start until all cores finished the first) and Fig. 5 (non-blocking:")
	fmt.Println("isend and irecv posted together, copies overlap, one sync per round).")
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		werr := trace.WriteChromeTrace(f, chromeSpans, map[string]any{
			"rounds": *rounds, "n": *nElems,
			"note": "blocking ring exchange first, then the lightweight non-blocking one, separated by a 5us gap",
		})
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (open in https://ui.perfetto.dev or chrome://tracing)\n", *chrome)
	}
}

// runRing executes the ring rounds and returns the recorded spans of the
// first `record` cores.
func runRing(kind core.TransportKind, rounds, nElems, record int) *trace.Recorder {
	sys := fabric.New(timing.Default(), 1)
	defer sys.Release()
	comm := sys.Comms[0]
	rec := &trace.Recorder{}
	sys.Launch(func(_ int, c *scc.Core) {
		if c.ID < record {
			c.SetSpanRecorder(rec.Hook(c.ID))
		}
		ue := comm.UE(c.ID)
		ep := core.NewEndpoint(ue, kind)
		p := ue.NumUEs()
		right := (c.ID + 1) % p
		left := (c.ID + p - 1) % p
		src := c.AllocF64(nElems)
		dst := c.AllocF64(nElems)
		ue.Barrier()
		for r := 0; r < rounds; r++ {
			ep.Exchange(right, src, 8*nElems, left, dst, 8*nElems)
		}
	})
	if err := sys.Run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return rec
}
