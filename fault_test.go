package sccsim_test

import (
	"errors"
	"math"
	"testing"

	sccsim "scc"
	"scc/internal/bench"
	"scc/internal/core"
	"scc/internal/fault"
	"scc/internal/rcce"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// TestUserErrorsReturned audits the façade's user-error paths: bad
// counts and bad roots come back as ErrInvalid on every stack instead of
// panicking the simulation.
func TestUserErrorsReturned(t *testing.T) {
	for _, stack := range []sccsim.Stack{sccsim.StackLightweightBalanced, sccsim.StackRCKMPI} {
		sys := sccsim.New(sccsim.WithStack(stack))
		var errNegN, errBadRoot, errNegRoot error
		err := sys.Run(func(r *sccsim.Rank) {
			a := r.AllocF64(8)
			if r.ID() == 0 {
				errNegN = r.Allreduce(a, a, -1)
				errBadRoot = r.Broadcast(r.N(), a, 4)
				errNegRoot = r.Reduce(-3, a, a, 4)
			}
		})
		if err != nil {
			t.Fatalf("%v: Run: %v", stack, err)
		}
		for name, e := range map[string]error{
			"negative count": errNegN, "root out of range": errBadRoot, "negative root": errNegRoot,
		} {
			if !errors.Is(e, sccsim.ErrInvalid) {
				t.Errorf("%v: %s: got %v, want ErrInvalid", stack, name, e)
			}
		}
	}
}

func TestRCKMPIScanReturnsError(t *testing.T) {
	sys := sccsim.New(sccsim.WithStack(sccsim.StackRCKMPI))
	var scanErr error
	err := sys.Run(func(r *sccsim.Rank) {
		a := r.AllocF64(4)
		if r.ID() == 0 {
			scanErr = r.Scan(a, a, 4)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(scanErr, sccsim.ErrInvalid) {
		t.Fatalf("RCKMPI Scan: got %v, want ErrInvalid", scanErr)
	}
}

// TestWithFaultsAndRecovery drives the fault options end to end through
// the façade: a lost flag write is retransmitted, the Allreduce result
// stays correct, and the per-rank recovery statistics are visible.
func TestWithFaultsAndRecovery(t *testing.T) {
	const n = 552
	plan := fault.NewPlan().Add(fault.Fault{
		Kind: fault.FlagDrop, At: simtime.Time(simtime.Microseconds(50)), Core: 5, Off: -1,
	})
	sys := sccsim.New(
		sccsim.WithFaults(plan),
		sccsim.WithRecovery(sccsim.DefaultRecoveryPolicy()),
	)
	p := sys.NumCores()
	var recovered int64
	results := make([][]float64, p)
	err := sys.Run(func(r *sccsim.Rank) {
		src := r.AllocF64(n)
		dst := r.AllocF64(n)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(r.ID()) + float64(i)*0.5
		}
		r.WriteF64s(src, v)
		if err := r.Allreduce(src, dst, n); err != nil {
			t.Errorf("rank %d Allreduce: %v", r.ID(), err)
			return
		}
		got := make([]float64, n)
		r.ReadF64s(dst, got)
		results[r.ID()] = got
		recovered += r.Recovery().Retransmits + r.Recovery().DupAcks
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(plan.Events()) != 1 {
		t.Fatalf("fault did not fire: %v", plan.Events())
	}
	if recovered == 0 {
		t.Fatal("no recovery work recorded despite an injected fault")
	}
	for i := 0; i < n; i++ {
		// sum over id of (id + i*0.5) = p(p-1)/2 + p*i*0.5
		want := float64(p*(p-1))/2 + float64(p)*float64(i)*0.5
		for id := 0; id < p; id++ {
			if math.Abs(results[id][i]-want) > 1e-9 {
				t.Fatalf("rank %d element %d = %v, want %v", id, i, results[id][i], want)
			}
		}
	}
}

// TestFaultSweepNoSilentCorruption runs the Fig. R1 sweep exactly as the
// repository benchmark's faults_48 workload calls it, on the three fault
// histories out of the first 120 that used to end with all 48 cores
// holding a wrong sum and no error: in each, the payload write and the
// checksum write of one chunk were both lost, and the stale previous
// chunk verified against its own stale checksum. Under CHAOS_SOAK_SEEDS
// (CI's chaos-soak job sets 12) the sweep widens to ten histories per
// soak seed, i.e. seeds 1-120.
func TestFaultSweepNoSilentCorruption(t *testing.T) {
	seeds := []int64{13, 77, 97}
	if soak := soakSeeds(t, 0); soak > 0 {
		seeds = seeds[:0]
		for s := int64(1); s <= int64(10*soak); s++ {
			seeds = append(seeds, s)
		}
	}
	counts := []int{0, 1, 2, 4, 8, 16}
	for _, seed := range seeds {
		for _, kind := range []core.TransportKind{core.TransportBlocking, core.TransportLightweight} {
			pts := bench.NewRunner(1).FaultSweepAlgo(timing.Default(), kind, rcce.DefaultPolicy(), "", seed, 552, counts)
			for i, pt := range pts {
				if pt.Errs != 0 || pt.Wrong != 0 || pt.Fired > counts[i] {
					t.Errorf("seed %d, %v, %d faults: errs=%d wrong=%d fired=%d",
						seed, kind, counts[i], pt.Errs, pt.Wrong, pt.Fired)
				}
			}
		}
	}
}
