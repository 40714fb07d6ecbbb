package rcce

import (
	"testing"

	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// TestJitterOfPureAndBounded pins the contract the self-healing runtime
// relies on: JitterOf is a pure function of its arguments (no clocks, no
// global state), bounded by window*Jitter/16, zero when disabled, and
// actually spreads distinct pairings apart.
func TestJitterOfPureAndBounded(t *testing.T) {
	pol := Policy{Timeout: simtime.Microseconds(300), MaxRetries: 5, Jitter: 4}
	window := simtime.Microseconds(600)
	max := window * simtime.Duration(pol.Jitter) / 16

	distinct := map[simtime.Duration]bool{}
	for self := 0; self < 4; self++ {
		for peer := 0; peer < 4; peer++ {
			for seq := byte(1); seq < 4; seq++ {
				for try := 0; try < 4; try++ {
					j := pol.JitterOf(window, self, peer, seq, try)
					if j != pol.JitterOf(window, self, peer, seq, try) {
						t.Fatalf("JitterOf not pure for (%d,%d,%d,%d)", self, peer, seq, try)
					}
					if j < 0 || j > max {
						t.Fatalf("JitterOf(%d,%d,%d,%d) = %v outside [0,%v]", self, peer, seq, try, j, max)
					}
					distinct[j] = true
				}
			}
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("jitter produced a single value across all pairings; it spreads nothing")
	}

	pol.Jitter = 0
	if j := pol.JitterOf(window, 1, 2, 3, 4); j != 0 {
		t.Fatalf("Jitter=0 must disable the stretch, got %v", j)
	}
}

// jitteredGiveUpTime runs one send toward a peer that never answers
// under a jittered policy and returns the virtual time at which the
// retry budget gave up.
func jitteredGiveUpTime(t *testing.T, jitter int) simtime.Time {
	t.Helper()
	chip := scc.New(timing.Default())
	comm := NewComm(chip)
	pol := Policy{Timeout: simtime.Microseconds(50), MaxRetries: 4, Jitter: jitter}
	var end simtime.Time
	chip.LaunchOne(0, func(core *scc.Core) {
		u := comm.UE(0)
		a := core.AllocF64(8)
		if err := u.SendRobust(NBCosts{Post: 500, Wait: 400}, pol, 1, a, 64); err == nil {
			t.Error("send toward a silent peer unexpectedly succeeded")
		}
		end = core.Now()
	})
	if err := chip.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return end
}

// TestJitterDeterministicRegression is the determinism regression for
// the jittered backoff path: identical runs give bit-identical give-up
// times, and enabling jitter genuinely stretches the budget relative to
// the unjittered baseline (proving the stretch is wired into the
// transport, not just computed).
func TestJitterDeterministicRegression(t *testing.T) {
	base := jitteredGiveUpTime(t, 0)
	j1 := jitteredGiveUpTime(t, 4)
	j2 := jitteredGiveUpTime(t, 4)
	if j1 != j2 {
		t.Fatalf("same-seed jittered runs differ: %d vs %d ticks", j1, j2)
	}
	if j1 < base {
		t.Fatalf("jittered budget (%d) shorter than unjittered (%d)", j1, base)
	}
	if j1 == base {
		t.Fatalf("jitter had no effect on the retry schedule (both gave up at %d)", j1)
	}
}
