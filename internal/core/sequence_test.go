package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

// Randomized cross-collective sequences: a fresh chip runs a random
// program of mixed collectives (random op, size, root) and every result
// is checked against a sequential reference executor. This guards
// against state leaking between consecutive collectives (stale flags,
// scratch aliasing, partition mismatches) - the class of bug that only
// shows up when operations are chained, as in the GCMC application.

type seqOp struct {
	kind string
	n    int
	root int
}

// refState is the sequential reference: per-core vectors updated by the
// same operations.
type refState struct {
	p    int
	vecs [][]float64 // current value of each core's working vector
}

func (r *refState) apply(op seqOp) {
	switch op.kind {
	case "allreduce":
		sum := make([]float64, op.n)
		for _, v := range r.vecs {
			for i := 0; i < op.n; i++ {
				sum[i] += v[i]
			}
		}
		for _, v := range r.vecs {
			copy(v[:op.n], sum)
		}
	case "broadcast":
		src := r.vecs[op.root]
		for q, v := range r.vecs {
			if q != op.root {
				copy(v[:op.n], src[:op.n])
			}
		}
	case "reduce":
		sum := make([]float64, op.n)
		for _, v := range r.vecs {
			for i := 0; i < op.n; i++ {
				sum[i] += v[i]
			}
		}
		copy(r.vecs[op.root][:op.n], sum)
	}
}

func TestRandomCollectiveSequences(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	kinds := []string{"allreduce", "broadcast", "reduce"}
	for _, cfg := range []Config{ConfigBlocking, ConfigBalanced, ConfigMPB} {
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)*17 + 5))
			const maxN = 200
			const steps = 6
			p := 48

			// Build the random program (shared by sim and reference).
			ops := make([]seqOp, steps)
			for i := range ops {
				ops[i] = seqOp{
					kind: kinds[rng.Intn(len(kinds))],
					n:    1 + rng.Intn(maxN),
					root: rng.Intn(p),
				}
			}
			// Initial vectors.
			init := make([][]float64, p)
			for q := range init {
				init[q] = make([]float64, maxN)
				for i := range init[q] {
					init[q][i] = math.Round(rng.Float64()*64) / 8
				}
			}

			// Reference execution.
			ref := &refState{p: p, vecs: make([][]float64, p)}
			for q := range ref.vecs {
				ref.vecs[q] = append([]float64(nil), init[q]...)
			}
			for _, op := range ops {
				ref.apply(op)
			}

			// Simulated execution.
			chip := scc.New(timing.Default())
			comm := rcce.NewComm(chip)
			final := make([][]float64, p)
			chip.Launch(func(c *scc.Core) {
				x := NewCtx(comm.UE(c.ID), cfg)
				work := c.AllocF64(maxN)
				tmp := c.AllocF64(maxN)
				c.WriteF64s(work, init[c.ID])
				for _, op := range ops {
					switch op.kind {
					case "allreduce":
						x.Allreduce(work, tmp, op.n, Sum)
						x.CopyPrivate(work, tmp, op.n)
					case "broadcast":
						x.Broadcast(op.root, work, op.n)
					case "reduce":
						x.Reduce(op.root, work, tmp, op.n, Sum)
						if c.ID == op.root {
							x.CopyPrivate(work, tmp, op.n)
						}
					}
				}
				out := make([]float64, maxN)
				c.ReadF64s(work, out)
				final[c.ID] = out
			})
			if err := chip.Run(); err != nil {
				t.Fatalf("%s trial %d (%v): %v", cfg.Name(), trial, ops, err)
			}
			for q := 0; q < p; q++ {
				for i := 0; i < maxN; i++ {
					if math.Abs(final[q][i]-ref.vecs[q][i]) > 1e-6 {
						t.Fatalf("%s trial %d: core %d elem %d = %v, want %v\nprogram: %v",
							cfg.Name(), trial, q, i, final[q][i], ref.vecs[q][i], ops)
					}
				}
			}
		}
	}
}

func TestBackToBackMPBAllreducesLeaveCleanFlags(t *testing.T) {
	// Regression guard for the drained-flag bug: many consecutive
	// MPB-direct Allreduces with varying sizes must keep working and
	// leave all pair flags zero at the end.
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	sizes := []int{96, 100, 144, 97, 200, 96}
	chip.Launch(func(c *scc.Core) {
		x := NewCtx(comm.UE(c.ID), ConfigMPB)
		src := c.AllocF64(200)
		dst := c.AllocF64(200)
		v := make([]float64, 200)
		for i := range v {
			v[i] = 1
		}
		c.WriteF64s(src, v)
		for _, n := range sizes {
			x.Allreduce(src, dst, n, Sum)
			out := make([]float64, 1)
			c.ReadF64s(dst, out)
			if out[0] != 48 {
				panic(fmt.Sprintf("iteration n=%d: sum %v", n, out[0]))
			}
		}
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	// Every MPB ring flag (roles 4..7) must be back to zero.
	for owner := 0; owner < 48; owner++ {
		for writer := 0; writer < 48; writer++ {
			for role := rcce.FlagMPBSent0; role <= rcce.FlagMPBReady1; role++ {
				off := comm.FlagAddr(owner, writer, role)
				if v := chip.MPBSlice(off, 1)[0]; v != 0 {
					t.Fatalf("stale MPB flag owner=%d writer=%d role=%d value=%d",
						owner, writer, role, v)
				}
			}
		}
	}
}
