package sccsim_test

import (
	"errors"
	"os"
	"strconv"
	"sync"
	"testing"

	sccsim "scc"
	"scc/internal/simtime"
)

// chaosOutcome is everything one chaos run is judged on.
type chaosOutcome struct {
	vals    map[int]float64
	errs    map[int]error
	epochs  map[int]uint32
	elapsed sccsim.Duration
}

// chaosVictim is the core a seed's chaos scenario kills.
func chaosVictim(seed int64) int { return int(seed*7+5) % 48 }

// chaosRun executes one seeded chaos scenario: a burst of recoverable
// faults (link stalls, flag drops, MPB drops/corruptions) plus one
// unannounced death of core victim, all under the self-healing runtime.
func chaosRun(t *testing.T, seed int64, victim int) chaosOutcome {
	t.Helper()
	const (
		n       = 256
		reps    = 3
		horizon = 3000 // µs over which the recoverable faults land
	)
	killAt := sccsim.Microseconds(150 + (seed%7)*100)

	plan := sccsim.RandomFaultPlan(seed, 6, sccsim.Microseconds(horizon))
	plan.Add(sccsim.Fault{Kind: sccsim.FaultCoreDie, At: simtime.Time(killAt), Core: victim})

	sys := sccsim.New(
		sccsim.WithFaults(plan),
		sccsim.WithSelfHealing(sccsim.DefaultHealPolicy()),
	)

	out := chaosOutcome{
		vals:   make(map[int]float64),
		errs:   make(map[int]error),
		epochs: make(map[int]uint32),
	}
	var mu sync.Mutex
	err := sys.Run(func(r *sccsim.Rank) {
		src := r.AllocF64(n)
		dst := r.AllocF64(n)
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = float64(r.ID() + 1)
		}
		r.WriteF64s(src, buf)
		var rerr error
		for k := 0; k < reps && rerr == nil; k++ {
			rerr = r.Allreduce(src, dst, n)
		}
		got := make([]float64, 1)
		r.ReadF64s(dst, got)
		mu.Lock()
		defer mu.Unlock()
		out.vals[r.ID()] = got[0]
		out.errs[r.ID()] = rerr
		if rep := r.HealReport(); rep != nil {
			out.epochs[r.ID()] = rep.Epoch
		}
	})
	if err != nil {
		// Every wait in the self-healing stack is bounded, so no seed may
		// deadlock the engine — a run-level error is a protocol bug.
		t.Fatalf("seed %d: run failed: %v", seed, err)
	}
	out.elapsed = sys.Elapsed()
	return out
}

// soakSeeds returns the CHAOS_SOAK_SEEDS sweep width, or def when the
// variable is unset.
func soakSeeds(t *testing.T, def int) int {
	t.Helper()
	s := os.Getenv("CHAOS_SOAK_SEEDS")
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 {
		t.Fatalf("CHAOS_SOAK_SEEDS=%q is not a positive integer", s)
	}
	return v
}

// TestChaosSoak drives seeded random fault bursts plus an unannounced
// core death through the self-healing runtime and asserts the safety
// contract: no deadlocks, only typed errors, completers that agreed on
// the same epoch agree bit-for-bit on the result, and the whole run is
// deterministic per seed. CHAOS_SOAK_SEEDS widens the sweep in CI. No
// seed's victim is core 0, the outcome vote's root, so one more case
// kills it under seed 0's fault burst.
func TestChaosSoak(t *testing.T) {
	seeds := soakSeeds(t, 4)
	type soakCase struct {
		name   string
		seed   int64
		victim int
	}
	var cases []soakCase
	for seed := int64(0); seed < int64(seeds); seed++ {
		cases = append(cases, soakCase{strconv.FormatInt(seed, 10), seed, chaosVictim(seed)})
	}
	cases = append(cases, soakCase{"victim0", 0, 0})
	for _, tc := range cases {
		seed, victim := tc.seed, tc.victim
		t.Run(tc.name, func(t *testing.T) {
			out := chaosRun(t, seed, victim)

			// Typed errors only: anything else is a protocol bug escaping
			// as a raw failure.
			for id, err := range out.errs {
				if err == nil || id == victim {
					continue
				}
				if !errors.Is(err, sccsim.ErrUnreachable) &&
					!errors.Is(err, sccsim.ErrEvicted) &&
					!errors.Is(err, sccsim.ErrNoQuorum) &&
					!errors.Is(err, sccsim.ErrHealGiveUp) {
					t.Errorf("core %d: untyped error: %v", id, err)
				}
			}

			// Agreement safety: completers on the same final epoch are in
			// the same committed group and must hold identical sums.
			byEpoch := make(map[uint32]float64)
			for id, err := range out.errs {
				if err != nil || id == victim {
					continue
				}
				e := out.epochs[id]
				if want, seen := byEpoch[e]; seen {
					if out.vals[id] != want {
						t.Errorf("core %d: epoch %d value %v disagrees with %v", id, e, out.vals[id], want)
					}
				} else {
					byEpoch[e] = out.vals[id]
				}
			}
		})
	}

	// Same-seed determinism: one full rerun must be bit-identical in
	// time, values, errors and epochs.
	a := chaosRun(t, 0, chaosVictim(0))
	b := chaosRun(t, 0, chaosVictim(0))
	if a.elapsed != b.elapsed {
		t.Fatalf("seed 0 reruns differ in elapsed time: %d vs %d ticks", a.elapsed, b.elapsed)
	}
	for id := 0; id < 48; id++ {
		if a.vals[id] != b.vals[id] || (a.errs[id] == nil) != (b.errs[id] == nil) || a.epochs[id] != b.epochs[id] {
			t.Fatalf("seed 0 reruns differ at core %d: val %v/%v err %v/%v epoch %d/%d",
				id, a.vals[id], b.vals[id], a.errs[id], b.errs[id], a.epochs[id], b.epochs[id])
		}
	}
}
