package core

import (
	"errors"
	"math"
	"testing"

	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

func TestGroupConstruction(t *testing.T) {
	g, err := NewGroup([]int{7, 3, 11}, 48)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3 {
		t.Fatalf("Size = %d, want 3", g.Size())
	}
	want := []int{3, 7, 11}
	for r, id := range g.Members() {
		if id != want[r] {
			t.Fatalf("Members()[%d] = %d, want %d", r, id, want[r])
		}
		if g.Member(r) != id || g.RankOf(id) != r {
			t.Fatalf("rank/member mapping broken at rank %d", r)
		}
	}
	if g.RankOf(5) != -1 || g.Contains(5) {
		t.Fatal("non-member 5 should have rank -1")
	}

	for _, bad := range [][]int{{}, {-1}, {48}, {3, 3}} {
		if _, err := NewGroup(bad, 48); !errors.Is(err, ErrInvalid) {
			t.Fatalf("NewGroup(%v) = %v, want ErrInvalid", bad, err)
		}
	}

	surv, err := Survivors(48, []int{17})
	if err != nil {
		t.Fatal(err)
	}
	if surv.Size() != 47 || surv.Contains(17) {
		t.Fatalf("Survivors(48, [17]): size %d, contains17 %v", surv.Size(), surv.Contains(17))
	}
}

// TestSurvivorsEdgeCases pins the degenerate inputs a fault plan (or a
// confused caller) can produce: duplicate dead entries are tolerated, a
// fully dead chip and out-of-range IDs return clean typed errors, and a
// nonsensical core count is rejected outright.
func TestSurvivorsEdgeCases(t *testing.T) {
	// Duplicates: a fault plan can report the same core dead twice.
	g, err := Survivors(48, []int{17, 17, 3, 17})
	if err != nil {
		t.Fatalf("duplicate dead entries: %v", err)
	}
	if g.Size() != 46 || g.Contains(17) || g.Contains(3) {
		t.Fatalf("Survivors(48, [17,17,3,17]): size %d, want 46 without 3 and 17", g.Size())
	}

	// All dead: no survivors is an error, not an empty group.
	allDead := make([]int, 48)
	for i := range allDead {
		allDead[i] = i
	}
	if _, err := Survivors(48, allDead); !errors.Is(err, ErrInvalid) {
		t.Fatalf("all-dead: err = %v, want ErrInvalid", err)
	}

	// Out-of-range dead IDs.
	for _, bad := range [][]int{{-1}, {48}, {0, 99}} {
		if _, err := Survivors(48, bad); !errors.Is(err, ErrInvalid) {
			t.Fatalf("Survivors(48, %v) = %v, want ErrInvalid", bad, err)
		}
	}

	// Nonsensical chip sizes.
	for _, n := range []int{0, -3} {
		if _, err := Survivors(n, nil); !errors.Is(err, ErrInvalid) {
			t.Fatalf("Survivors(%d, nil) = %v, want ErrInvalid", n, err)
		}
	}

	// No dead cores at all: the full chip survives.
	g, err = Survivors(4, nil)
	if err != nil || g.Size() != 4 {
		t.Fatalf("Survivors(4, nil) = %v, %v; want a 4-member group", g, err)
	}
}

func TestNewCtxGroupRejectsNonMember(t *testing.T) {
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	g, err := NewGroup([]int{0, 1}, chip.NumCores())
	if err != nil {
		t.Fatal(err)
	}
	var ctxErr error
	chip.LaunchOne(2, func(c *scc.Core) {
		_, ctxErr = NewCtxGroup(comm.UE(2), ConfigLightweight, g)
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(ctxErr, ErrInvalid) {
		t.Fatalf("NewCtxGroup for non-member: %v, want ErrInvalid", ctxErr)
	}
}

// TestGroupAllreduceSurvivors runs the failure-aware mode's core claim:
// an Allreduce over the 47 survivors of a dead core completes with
// correct sums, for every transport, long and short vectors.
func TestGroupAllreduceSurvivors(t *testing.T) {
	const dead = 17
	for _, cfg := range []Config{ConfigBlocking, ConfigIRCCE, ConfigLightweight, ConfigBalanced} {
		for _, n := range []int{13, 552} { // tree path and ring path
			chip := scc.New(timing.Default())
			comm := rcce.NewComm(chip)
			g, err := Survivors(chip.NumCores(), []int{dead})
			if err != nil {
				t.Fatal(err)
			}
			in := makeInputs(48, n, 11)
			want := make([]float64, n)
			for id := 0; id < 48; id++ {
				if id == dead {
					continue
				}
				for i, v := range in[id] {
					want[i] += v
				}
			}
			got := make([][]float64, 48)
			chip.Launch(func(core *scc.Core) {
				if core.ID == dead {
					return // the dead core never participates
				}
				x, err := NewCtxGroup(comm.UE(core.ID), cfg, g)
				if err != nil {
					t.Errorf("NewCtxGroup: %v", err)
					return
				}
				src := core.AllocF64(n)
				dst := core.AllocF64(n)
				core.WriteF64s(src, in[core.ID])
				if err := x.Allreduce(src, dst, n, Sum); err != nil {
					t.Errorf("Allreduce: %v", err)
					return
				}
				if err := x.Barrier(); err != nil {
					t.Errorf("Barrier: %v", err)
					return
				}
				v := make([]float64, n)
				core.ReadF64s(dst, v)
				got[core.ID] = v
			})
			if err := chip.Run(); err != nil {
				t.Fatalf("%s n=%d: %v", cfg.Name(), n, err)
			}
			for id := 0; id < 48; id++ {
				if id == dead {
					continue
				}
				for i := range want {
					if math.Abs(got[id][i]-want[i]) > 1e-9 {
						t.Fatalf("%s n=%d: core %d element %d = %v, want %v",
							cfg.Name(), n, id, i, got[id][i], want[i])
					}
				}
			}
		}
	}
}

// TestGroupCollectivesRootTranslation checks root handling over a group:
// roots are core IDs, and a root outside the group is rejected.
func TestGroupCollectivesRootTranslation(t *testing.T) {
	members := []int{2, 5, 9, 30, 41}
	root := 9
	const n = 32
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	g, err := NewGroup(members, chip.NumCores())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(48, n, 3)
	want := make([]float64, n)
	for _, id := range members {
		for i, v := range in[id] {
			want[i] += v
		}
	}
	var rootGot []float64
	var badRootErr error
	for _, id := range members {
		id := id
		chip.LaunchOne(id, func(core *scc.Core) {
			x, err := NewCtxGroup(comm.UE(id), ConfigLightweight, g)
			if err != nil {
				t.Errorf("NewCtxGroup: %v", err)
				return
			}
			src := core.AllocF64(n)
			dst := core.AllocF64(n)
			core.WriteF64s(src, in[id])
			if err := x.Reduce(root, src, dst, n, Sum); err != nil {
				t.Errorf("Reduce: %v", err)
				return
			}
			if id == root {
				rootGot = make([]float64, n)
				core.ReadF64s(dst, rootGot)
				// Root 4 is alive on the chip but not a member: invalid.
				badRootErr = x.Broadcast(4, dst, n)
			}
		})
	}
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(rootGot[i]-want[i]) > 1e-9 {
			t.Fatalf("element %d = %v, want %v", i, rootGot[i], want[i])
		}
	}
	if !errors.Is(badRootErr, ErrInvalid) {
		t.Fatalf("non-member root: %v, want ErrInvalid", badRootErr)
	}
}

// TestBlockingRingOverSameParityGroup: the blocking transport orders an
// exchange by communicator rank. Ordered by core ID, every member of a
// group whose IDs share one parity sent first, and the ring deadlocked:
// Allgather always, Allreduce under every ring-based algorithm.
func TestBlockingRingOverSameParityGroup(t *testing.T) {
	const n = 12
	for _, members := range [][]int{{0, 2}, {1, 3}, {0, 2, 4}, {1, 3, 5, 7}, {0, 2, 3}} {
		for _, algo := range AlgorithmNames(KindAllreduce) {
			chip := scc.New(timing.Topology(2, 2, 2))
			comm := rcce.NewComm(chip)
			g, err := NewGroup(members, chip.NumCores())
			if err != nil {
				t.Fatal(err)
			}
			cfg := ConfigBlocking
			cfg.Selector = Fixed(algo)
			in := makeInputs(chip.NumCores(), n, 5)
			want := make([]float64, n)
			for _, id := range members {
				for i, v := range in[id] {
					want[i] += v
				}
			}
			for _, id := range members {
				chip.LaunchOne(id, func(c *scc.Core) {
					x, err := NewCtxGroup(comm.UE(id), cfg, g)
					if err != nil {
						panic(err)
					}
					src, dst, all := c.AllocF64(n), c.AllocF64(n), c.AllocF64(len(members)*n)
					c.WriteF64s(src, in[id])
					if err := x.Allreduce(src, dst, n, Sum); err != nil {
						panic(err)
					}
					if err := x.Allgather(src, n, all); err != nil {
						panic(err)
					}
					sum, gathered := make([]float64, n), make([]float64, len(members)*n)
					c.ReadF64s(dst, sum)
					c.ReadF64s(all, gathered)
					for i := range want {
						if math.Abs(sum[i]-want[i]) > 1e-9 {
							t.Errorf("%v %s: core %d sum[%d] = %v, want %v", members, algo, id, i, sum[i], want[i])
							return
						}
					}
					for r, m := range members {
						for i := 0; i < n; i++ {
							if gathered[r*n+i] != in[m][i] {
								t.Errorf("%v %s: core %d block %d wrong", members, algo, id, r)
								return
							}
						}
					}
				})
			}
			if err := chip.Run(); err != nil {
				t.Fatalf("group %v, Allreduce %q then Allgather: %v", members, algo, err)
			}
		}
	}
}
