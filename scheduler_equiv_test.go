// Scheduler-equivalence golden test. The digests in
// testdata/scheduler_equiv.json were generated by the seed engine (the
// central-loop scheduler, two channel handoffs per event) immediately
// before the direct-handoff rewrite; the rewritten engine must reproduce
// every byte: virtual times across the Fig. 9 panel and all registered
// algorithms, the fault and self-heal suites, the metrics snapshot and
// the Chrome trace of an instrumented run, and a seeded random
// signal/timeout workload that exercises signal/deadline races directly.
//
// Regenerate (only when the *workload definition* changes, never to
// paper over a scheduler difference) — every section, or only the named
// ones:
//
//	SCHED_GOLDEN_UPDATE=all go test -run TestSchedulerGolden -count=1 .
//	SCHED_GOLDEN_UPDATE=fault,trace go test -run TestSchedulerGolden -count=1 .
//
// Besides the digests, testdata/scheduler_equiv/<section>.txt keeps each
// section's pre-image (what was hashed). When a digest breaks, the test
// writes the new pre-image to testdata/scheduler_equiv.got/ and reports
// the first differing line against the committed one. trace.txt (1 MB)
// is the one pre-image .gitignore keeps out of the repository; an update
// naming no section writes it locally without touching a digest:
//
//	SCHED_GOLDEN_UPDATE=none go test -run TestSchedulerGolden -count=1 .   # at the last good commit
package sccsim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"scc/internal/bench"
	"scc/internal/core"
	"scc/internal/rcce"
	"scc/internal/simtime"
	"scc/internal/timing"
)

const (
	schedGoldenPath   = "testdata/scheduler_equiv.json"
	schedPreimageDir  = "testdata/scheduler_equiv"
	schedMismatchDir  = "testdata/scheduler_equiv.got"
	schedVerbatimSect = "instr.latency" // stored as its value, not as a digest
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// schedGoldenSections computes every section's pre-image: the exact
// bytes that are hashed. The workloads are all deterministic, so any
// change means the scheduler changed observable behavior (virtual times,
// wake order, or output bytes). Every time in a pre-image is a raw tick
// count — Duration.String() rounds to four digits and would hide shifts
// of hundreds of ticks.
func schedGoldenSections(t *testing.T) map[string][]byte {
	t.Helper()
	model := timing.Default()
	sections := make(map[string][]byte)
	lines := func(ls []string) []byte { return []byte(strings.Join(ls, "\n") + "\n") }

	// Fig. 9: every panel (op × stack), sizes spanning the paper's
	// x-axis, swept by the parallel runner. The allreduce panel is
	// additionally swept serially and must be byte-identical, pinning
	// worker-count independence against the same golden.
	sizes := []int{500, 552, 700}
	par := bench.NewRunner(4)
	for _, op := range bench.AllOps() {
		var buf bytes.Buffer
		if err := bench.WriteCSV(&buf, par.Panel(model, op, sizes, 1)); err != nil {
			t.Fatalf("panel %s: %v", op, err)
		}
		sections["fig9."+string(op)] = buf.Bytes()
	}
	var serial bytes.Buffer
	if err := bench.WriteCSV(&serial, bench.NewRunner(1).Panel(model, bench.OpAllreduce, sizes, 1)); err != nil {
		t.Fatalf("serial allreduce panel: %v", err)
	}
	if !bytes.Equal(serial.Bytes(), sections["fig9.allreduce"]) {
		t.Errorf("allreduce panel differs between workers=1 and workers=4:\n%s", bench.FirstDiff(sections["fig9.allreduce"], serial.Bytes()))
	}

	// Every registered algorithm of every op kind, at the paper's
	// application point (np=48, n=552) and a small off-grid point. The
	// multi-chip composition is no registry entry; the topology.* and
	// hier.* sections below cover it.
	var algoLines []string
	for _, k := range core.OpKinds() {
		for _, algo := range core.AlgorithmNames(k) {
			for _, pt := range [...]struct{ np, n int }{{48, 552}, {8, 64}} {
				lat, ok := bench.MeasureAlgorithm(model, core.ConfigLightweight, k, algo, pt.np, pt.n, 1)
				algoLines = append(algoLines,
					fmt.Sprintf("%s/%s np=%d n=%d ok=%v lat=%d", k, algo, pt.np, pt.n, ok, int64(lat)))
			}
		}
	}
	sections["algorithms"] = []byte(fmt.Sprint(algoLines))

	// Topology sections: the allreduce panel workload on non-default
	// geometries, digested with the geometry-labeled writer. First,
	// though, the refactor's byte-identity claim in one assertion: the
	// default geometry re-derived through Topology() must produce the
	// exact bytes of the Fig. 9 panel above.
	var rederived bytes.Buffer
	if err := bench.WriteCSV(&rederived, par.Panel(timing.Topology(4, 6, 2), bench.OpAllreduce, sizes, 1)); err != nil {
		t.Fatalf("re-derived default panel: %v", err)
	}
	if !bytes.Equal(rederived.Bytes(), sections["fig9.allreduce"]) {
		t.Errorf("Topology(4,6,2) allreduce panel differs from the Default() panel:\n%s", bench.FirstDiff(sections["fig9.allreduce"], rederived.Bytes()))
	}
	for _, g := range [...]struct{ rows, cols, per int }{{4, 4, 1}, {8, 8, 2}} {
		tm := timing.Topology(g.rows, g.cols, g.per)
		var buf bytes.Buffer
		if err := bench.WriteTopologyCSV(&buf, tm, 1, par.Panel(tm, bench.OpAllreduce, []int{64, 96}, 1)); err != nil {
			t.Fatalf("topology panel %dx%dx%d: %v", g.rows, g.cols, g.per, err)
		}
		sections[fmt.Sprintf("topology.%dx%dx%d", g.rows, g.cols, g.per)] = buf.Bytes()
	}

	// The hierarchical composition: 2-chip fabric runs of both
	// chip-spanning collectives, every intra-chip algorithm steering the
	// Allreduce phases.
	var hierLines []string
	for _, intra := range core.AlgorithmNames(core.KindAllreduce) {
		lat := bench.MeasureHier(model, 2, intra, bench.OpAllreduce, 128, 1)
		hierLines = append(hierLines, fmt.Sprintf("allreduce[%s] lat=%d", intra, int64(lat)))
	}
	hierLines = append(hierLines, fmt.Sprintf("broadcast lat=%d",
		int64(bench.MeasureHier(model, 2, "", bench.OpBroadcast, 128, 1))))
	sections["hier.2chip"] = []byte(fmt.Sprint(hierLines))

	// The fault suite: hardened transport under a seeded burst plan.
	fp := bench.NewRunner(1).FaultSweepAlgo(model, core.TransportLightweight, rcce.DefaultPolicy(), "", 42, 256, []int{0, 2, 4})
	var faultLines []string
	for _, p := range fp {
		faultLines = append(faultLines, fmt.Sprintf(
			"faults=%d fired=%d lat=%d timeouts=%d retransmits=%d nacks=%d dupacks=%d lostacks=%d recovery=%d errs=%d wrong=%d",
			p.Faults, p.Fired, int64(p.Latency), p.Stats.Timeouts, p.Stats.Retransmits, p.Stats.Nacks,
			p.Stats.DupAcks, p.Stats.LostAcks, int64(p.Stats.Recovery), p.Errs, p.Wrong))
	}
	sections["fault"] = lines(faultLines)

	// The self-heal suite: mid-collective core death, detection,
	// agreement and re-execution — the deepest consumer of signals,
	// timeouts and deadline arithmetic.
	hp := bench.NewRunner(1).SelfHealSweep(model, core.TransportLightweight, core.DefaultHealPolicy(),
		[]string{"ring", "recdouble"}, 552, []float64{0.5})
	var healLines []string
	for _, p := range hp {
		healLines = append(healLines, fmt.Sprintf(
			"algo=%s killat=%d plain=%d overhead=%d oracle=%d total=%d detect=%d agree=%d reconfigs=%d reexecs=%d evicted=%d epoch=%d survivors=%d errs=%d wrong=%d",
			p.Algo, int64(p.KillAt), int64(p.Plain), int64(p.Overhead), int64(p.Oracle), int64(p.Total),
			int64(p.Detect), int64(p.Agree), p.Reconfigs, p.Reexecs, p.Evicted, p.Epoch, p.Survivors, p.Errs, p.Wrong))
	}
	sections["selfheal"] = lines(healLines)

	// Metrics snapshot and Chrome trace of one instrumented run: pins
	// every timestamp the observability layer reads off the engine.
	run := bench.MeasureInstrumented(model, bench.OpAllreduce,
		bench.Stack{Name: "lightweight non-blocking", Cfg: core.ConfigLightweight}, 552, 1)
	var mbuf bytes.Buffer
	if err := run.Metrics.WriteJSON(&mbuf); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	sections["metrics"] = mbuf.Bytes()
	var spanLines []string
	for _, sp := range run.Spans {
		spanLines = append(spanLines, fmt.Sprintf("core=%d %q start=%d end=%d", sp.Core, sp.Label, int64(sp.Start), int64(sp.End)))
	}
	sections["trace"] = lines(spanLines)
	sections[schedVerbatimSect] = []byte(fmt.Sprintf("%d", int64(run.Latency)))

	// A pure-simtime seeded workload: random sleeps, broadcasts and
	// timeout waits racing on shared signals, logging (proc, time) at
	// every step. Exercises a signal cancelling the deadline it beat and
	// the (at, seq) tie-break away from any protocol code.
	var simLog bytes.Buffer
	for seed := int64(1); seed <= 5; seed++ {
		eng := simtime.NewEngine()
		sigs := make([]simtime.Signal, 8)
		for i := 0; i < 40; i++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
			id := i
			eng.Spawn(fmt.Sprintf("w%02d", i), func(p *simtime.Proc) {
				for step := 0; step < 30; step++ {
					s := &sigs[rng.Intn(len(sigs))]
					switch rng.Intn(4) {
					case 0:
						p.Sleep(simtime.Time(rng.Intn(50)))
					case 1:
						p.WaitOnTimeout(s, simtime.Time(rng.Intn(40)), simtime.Site("equiv"))
					case 2:
						s.Broadcast(p.Engine())
						p.Yield()
					case 3:
						p.Sleep(simtime.Time(rng.Intn(5)))
						s.Broadcast(p.Engine())
					}
					fmt.Fprintf(&simLog, "%d:%d@%d\n", id, step, int64(p.Now()))
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(&simLog, "end seed=%d t=%d\n", seed, int64(eng.Now()))
	}
	sections["simtime.random"] = simLog.Bytes()

	return sections
}

// TestSchedulerGoldenEquivalence proves the running engine
// observationally identical to the seed engine that generated the
// committed golden digests.
func TestSchedulerGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second full-surface sweep; run without -short")
	}
	pre := schedGoldenSections(t)
	got := make(map[string]string, len(pre))
	for k, b := range pre {
		got[k] = digest(b)
		if k == schedVerbatimSect {
			got[k] = string(b)
		}
	}
	preimagePath := func(dir, k string) string { return filepath.Join(dir, k+".txt") }

	want := map[string]string{}
	raw, err := os.ReadFile(schedGoldenPath)
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	upd := os.Getenv("SCHED_GOLDEN_UPDATE")
	if err != nil && upd != "all" {
		t.Fatalf("reading %s (generate with SCHED_GOLDEN_UPDATE=all): %v", schedGoldenPath, err)
	}
	if upd != "" {
		// Named sections take the new digest ("all": every one); the
		// pre-image file of every section that now matches is (re)written.
		for k := range got {
			if upd == "all" || slices.Contains(strings.Split(upd, ","), k) {
				want[k] = got[k]
				t.Logf("regenerated section %q", k)
			}
		}
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(schedGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(schedPreimageDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if got[k] == want[k] {
				if err := os.WriteFile(preimagePath(schedPreimageDir, k), pre[k], 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] == want[k] {
			continue
		}
		// Leave the new pre-image where a person (or a CI artifact step)
		// finds it, and say where the section first moved.
		refPath := preimagePath(schedPreimageDir, k)
		where := "unknown: no " + refPath + " (write it at the last good commit with SCHED_GOLDEN_UPDATE=none)"
		if ref, err := os.ReadFile(refPath); err == nil {
			if where = bench.FirstDiff(ref, pre[k]); where == "" {
				where = "none: the pre-images are equal"
			}
		}
		gotPath := preimagePath(schedMismatchDir, k)
		if err := os.MkdirAll(schedMismatchDir, 0o755); err == nil {
			err = os.WriteFile(gotPath, pre[k], 0o644)
		}
		if err != nil {
			gotPath = fmt.Sprintf("(not written: %v)", err)
		}
		t.Errorf("section %q diverged from the seed engine: got %s, want %s\nnew pre-image: %s\nfirst difference, %s",
			k, got[k], want[k], gotPath, where)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("section %q missing from golden (regenerate)", k)
		}
	}
}
