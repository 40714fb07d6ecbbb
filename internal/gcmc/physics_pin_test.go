package gcmc

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"scc/internal/core"
	"scc/internal/rcce"
	"scc/internal/rckmpi"
	"scc/internal/scc"
	"scc/internal/timing"
)

// testdata/physics_pin.txt was recorded on the commit *before* the host
// kernels stopped recomputing (atomPos re-wrapping six coordinates a
// pair, longEn re-summing every local atom on every call, a k-vector
// table per core), so this test proves the rewrite changed no double and
// no tick: one line per move with the move drawn, its outcome, the
// molecule count and the tracked energy as hex bits, and one summary
// line per run with Result in full (times as raw ticks).
//
// Regenerate only when the workload below changes, never to absorb a
// difference:
//
//	PHYSICS_PIN_UPDATE=1 go test -run TestGCMCPhysicsPin ./internal/gcmc/
const physicsPinPath = "testdata/physics_pin.txt"

// molecules is the one spot of the tests that knows how a Simulation
// stores its configuration.
func molecules(s *Simulation) int { return s.n }

// recordingSource hands out the wrapped source's values and keeps them,
// so a test can replay one step's draws (decodeMove) and learn which
// move and which index the step picked without a hook in the product.
// math/rand derives Intn and Float64 from Int63 alone, so the stream the
// simulation sees is the unwrapped one (TestRecorderIsTransparent).
type recordingSource struct {
	src   rand.Source
	drawn []int64
}

func (r *recordingSource) Int63() int64 {
	v := r.src.Int63()
	r.drawn = append(r.drawn, v)
	return v
}
func (r *recordingSource) Seed(int64) { panic("recordingSource: reseeded") }

type replaySource struct{ vals []int64 }

func (r *replaySource) Int63() int64 {
	v := r.vals[0]
	r.vals = r.vals[1:]
	return v
}
func (r *replaySource) Seed(int64) { panic("replaySource: reseeded") }

// decodeMove replays the first draws of a step that began with n
// molecules: pickAction's, then the move's index draw (an insert draws
// none - its index is n).
func decodeMove(drawn []int64, n int) (moveKind, int) {
	r := rand.New(&replaySource{vals: drawn})
	kind := moveInsert
	if n > 0 {
		kind = moveKind(r.Intn(int(numMoveKinds)))
	}
	if kind == moveInsert {
		return kind, n
	}
	return kind, r.Intn(n)
}

// moveRecord is what a stepped run reports after each move.
type moveRecord struct {
	kind     moveKind
	idx      int // index drawn (an insert's is the count before it)
	nBefore  int
	accepted bool
}

// runStepped runs p on every core of a model chip like Run does, calling
// after on every core's simulation once the initial energy is known
// (mv == nil) and after every move; a collective inside after is legal,
// the cores reach it together. It returns every core's Result.
func runStepped(t *testing.T, model *timing.Model, p Params, stack func(*rcce.UE) Collectives, after func(s *Simulation, mv *moveRecord)) []Result {
	t.Helper()
	chip := scc.New(model)
	comm := rcce.NewComm(chip)
	results := make([]Result, chip.NumCores())
	chip.Launch(func(c *scc.Core) {
		s := New(c, stack(comm.UE(c.ID)), comm.NumUEs(), p)
		// New consumed the stream for the initial placement; bring a
		// recorded one to the same point.
		rec := &recordingSource{src: rand.NewSource(p.Seed)}
		s.rng = rand.New(rec)
		for i := 0; i < p.NumParticles*(3+3*(p.AtomsPerParticle-1)); i++ {
			s.rng.Float64()
		}
		start := c.Now()
		prof0 := c.Prof()
		s.comm.Barrier()
		s.enOld = s.totalEnergy()
		after(s, nil)
		for cycle := 0; cycle < p.Cycles; cycle++ {
			rec.drawn = rec.drawn[:0]
			mv := moveRecord{nBefore: molecules(s)}
			accepted := s.stats.Accepted
			s.step()
			mv.kind, mv.idx = decodeMove(rec.drawn, mv.nBefore)
			mv.accepted = s.stats.Accepted > accepted
			after(s, &mv)
		}
		s.comm.Barrier()
		prof1 := c.Prof()
		results[c.ID] = Result{
			FinalEnergy:   s.enOld,
			FinalN:        molecules(s),
			Stats:         s.stats,
			WallTime:      c.Now() - start,
			ComputeTime:   prof1.Compute - prof0.Compute,
			FlagWaitTime:  prof1.FlagWait - prof0.FlagWait,
			CommAllreduce: s.allreduce,
		}
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for id, r := range results {
		if r.FinalEnergy != results[0].FinalEnergy || r.FinalN != results[0].FinalN || r.Stats != results[0].Stats {
			t.Fatalf("core %d diverged: %+v vs %+v", id, r, results[0])
		}
	}
	return results
}

// smallChip is a 2x2 mesh of two-core tiles.
func smallChip() *timing.Model { return timing.Topology(2, 2, 2) }

func coreStack(cfg core.Config) func(*rcce.UE) Collectives {
	return func(ue *rcce.UE) Collectives { return CoreStack{Ctx: core.NewCtx(ue, cfg)} }
}

func rckmpiStack(ue *rcce.UE) Collectives { return rckmpi.New(ue) }

func summaryLine(r Result) string {
	return fmt.Sprintf("final E=%#016x N=%d stats=%+v allreduce=%d wall=%d compute=%d flagwait=%d",
		math.Float64bits(r.FinalEnergy), r.FinalN, r.Stats, r.CommAllreduce,
		int64(r.WallTime), int64(r.ComputeTime), int64(r.FlagWaitTime))
}

// TestRecorderIsTransparent: a stepped run under the recording source is
// the run Run makes.
func TestRecorderIsTransparent(t *testing.T) {
	p := testParams()
	p.Cycles = 40
	plain := runAllOn(t, smallChip(), core.ConfigBalanced, p)[0]
	stepped := runStepped(t, smallChip(), p, coreStack(core.ConfigBalanced), func(*Simulation, *moveRecord) {})[0]
	if plain != stepped {
		t.Fatalf("stepped run differs from Run:\n%+v\n%+v", stepped, plain)
	}
}

func TestGCMCPhysicsPin(t *testing.T) {
	type pinCase struct {
		name  string
		model *timing.Model
		p     Params
		stack func(*rcce.UE) Collectives
	}
	var cases []pinCase
	// The paper's size: 720 molecules, 276 k-vectors.
	for _, seed := range []int64{1, 7} {
		p := DefaultParams()
		p.Cycles = 6
		p.Seed = seed
		cases = append(cases,
			pinCase{fmt.Sprintf("default/blocking/seed%d", seed), timing.Default(), p, coreStack(core.ConfigBlocking)},
			pinCase{fmt.Sprintf("default/rckmpi/seed%d", seed), timing.Default(), p, rckmpiStack})
	}
	// Long chains at test size, so every shape of every move occurs. A
	// cycle at this size is all simulator (37 ms of host time on 48
	// cores whatever the molecule count), so the chains run on the
	// 8-core chip; ownership is still block-cyclic over several cores.
	for _, seed := range []int64{1, 2, 3} {
		p := testParams()
		p.Cycles = 120
		p.Seed = seed
		cases = append(cases, pinCase{fmt.Sprintf("small/8core/seed%d", seed), smallChip(), p, coreStack(core.ConfigBalanced)})
	}
	// Fewer molecules than cores, so some cores own nothing: long chains
	// on the small chip and a short one on all 48 cores.
	sparse := testParams()
	sparse.NumParticles = 5
	sparse.Cycles = 120
	for _, seed := range []int64{1, 2, 3} {
		sparse.Seed = seed
		cases = append(cases, pinCase{fmt.Sprintf("sparse/8core/seed%d", seed), smallChip(), sparse, coreStack(core.ConfigBalanced)})
	}
	sparse.Seed = 1
	sparse.NumParticles = 12
	sparse.Cycles = 24
	cases = append(cases, pinCase{"sparse/48core/seed1", timing.Default(), sparse, coreStack(core.ConfigBalanced)})

	// What the chains must contain for the pin to cover the position
	// store's every mutation and the memo's every owner case.
	saw := map[string]bool{}
	var lines []string
	for _, c := range cases {
		move := 0
		t0 := time.Now()
		res := runStepped(t, c.model, c.p, c.stack, func(s *Simulation, mv *moveRecord) {
			if s.rank != 0 {
				return
			}
			n := molecules(s)
			if mv == nil {
				lines = append(lines, fmt.Sprintf("%s: initial N=%d E=%#016x", c.name, n, math.Float64bits(s.enOld)))
				return
			}
			move++
			acc := "rejected"
			if mv.accepted {
				acc = "accepted"
			}
			lines = append(lines, fmt.Sprintf("%s: move %d %s idx=%d %s N=%d E=%#016x",
				c.name, move, mv.kind, mv.idx, acc, n, math.Float64bits(s.enOld)))
			saw[mv.kind.String()+" "+acc] = true
			if last := mv.nBefore - 1; mv.kind == moveDelete {
				switch {
				case mv.idx == last:
					saw["delete of the last index "+acc] = true
				case mv.idx%s.procs != last%s.procs:
					saw["swap-delete across owners "+acc] = true
				}
			}
			if n < s.procs {
				saw["a core that owns nothing"] = true
			}
		})
		lines = append(lines, c.name+": "+summaryLine(res[0]))
		t.Logf("%s: %v host", c.name, time.Since(t0).Round(time.Millisecond))
	}
	for _, want := range []string{
		"translate accepted", "translate rejected", "rotate accepted", "rotate rejected",
		"insert accepted", "insert rejected", "delete accepted", "delete rejected",
		"delete of the last index accepted", "delete of the last index rejected",
		"swap-delete across owners accepted", "swap-delete across owners rejected",
		"a core that owns nothing",
	} {
		if !saw[want] {
			t.Errorf("the pinned chains never had: %s", want)
		}
	}

	got := strings.Join(lines, "\n") + "\n"
	if os.Getenv("PHYSICS_PIN_UPDATE") != "" {
		if err := os.WriteFile(physicsPinPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d lines)", physicsPinPath, len(lines))
		return
	}
	raw, err := os.ReadFile(physicsPinPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d lines, the workload %d", physicsPinPath, len(want), len(lines))
	}
	moved := 0
	for i := range lines {
		if lines[i] != want[i] {
			if moved++; moved <= 5 {
				t.Errorf("line %d moved:\n  want: %s\n  got:  %s", i+1, want[i], lines[i])
			}
		}
	}
	if moved > 5 {
		t.Errorf("... and %d more lines", moved-5)
	}
}
