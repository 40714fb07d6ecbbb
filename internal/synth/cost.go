package synth

import (
	"scc/internal/mesh"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// The search ranks candidate schedules with a closed-form cost derived
// from the same timing.Model the simulator charges, so the ranking and
// the oracle agree on what is expensive: per-leg lightweight post/wait
// software overhead, per-cache-line staging plus MPB/mesh latency by
// hop distance, per-element reduction work, and a queueing penalty when
// several moves of one step load the same mesh link. The estimate is
// deliberately simpler than the simulator (no flag handshakes, no
// wrap-around chunking) — it only has to rank candidates; the winners
// are then measured exactly on the simulator.

type coster struct {
	m      *timing.Model
	np     int
	coords []mesh.Coord
}

// newCoster prices schedules for communicator ranks 0..np-1 mapped onto
// cores 0..np-1 of the model's mesh (the layout the tuner and bench
// harness use; the compiler's root relabeling swaps one pair of ranks,
// which perturbs at most two distances).
func newCoster(m *timing.Model, np int) *coster {
	c := &coster{m: m, np: np, coords: make([]mesh.Coord, np)}
	for r := 0; r < np; r++ {
		tile := r / m.CoresPerTile
		c.coords[r] = mesh.Coord{X: tile % m.MeshWidth, Y: tile / m.MeshWidth}
	}
	return c
}

func (c *coster) hops(a, b int) int { return mesh.Hops(c.coords[a], c.coords[b]) }

// lines returns the cache-line count of an elems-element chunk.
func (c *coster) lines(elems int) int {
	if elems == 0 {
		return 0
	}
	return (8*elems + c.m.CacheLineBytes - 1) / c.m.CacheLineBytes
}

// legOverhead is the software cost of posting and completing one
// lightweight transfer leg.
func (c *coster) legOverhead() simtime.Duration {
	return simtime.CoreCycles(c.m.OverheadLightweightPost + c.m.OverheadLightweightWait)
}

// stepCost prices one step: each rank's legs serialize locally, ranks
// proceed in parallel, and the worst-loaded mesh link adds a queueing
// penalty for the lines beyond its largest single message. elemsOf maps
// a chunk index to its element count for the vector size under
// evaluation.
func (c *coster) stepCost(step []Move, elemsOf func(chunk int) int) simtime.Duration {
	perRank := make([]simtime.Duration, c.np)
	type link struct{ a, b mesh.Coord }
	load := map[link]int{}
	biggest := map[link]int{}
	for _, mv := range step {
		elems := elemsOf(mv.Chunk)
		ln := c.lines(elems)
		if ln == 0 {
			continue
		}
		h := c.hops(mv.From, mv.To)
		send := c.legOverhead() +
			simtime.Duration(ln)*(simtime.CoreCycles(c.m.PutLineCoreCycles)+c.m.MPBAccess(h, false))
		recv := c.legOverhead() +
			simtime.Duration(ln)*(simtime.CoreCycles(c.m.GetLineCoreCycles)+c.m.MPBAccess(h, true))
		if mv.Kind == Combine {
			recv += simtime.CoreCycles(c.m.ReducePerElementCoreCycles * int64(elems))
		}
		perRank[mv.From] += send
		perRank[mv.To] += recv
		path := mesh.Route(c.coords[mv.From], c.coords[mv.To])
		for i := 1; i < len(path); i++ {
			l := link{path[i-1], path[i]}
			load[l] += ln
			if ln > biggest[l] {
				biggest[l] = ln
			}
		}
	}
	var worst simtime.Duration
	for _, d := range perRank {
		if d > worst {
			worst = d
		}
	}
	var queue int
	for l, n := range load {
		if extra := n - biggest[l]; extra > queue {
			queue = extra
		}
	}
	return worst + simtime.MeshCycles(c.m.LineSerializationMeshCycles()*int64(queue))
}

// scheduleCost sums the step costs for an n-element vector.
func (c *coster) scheduleCost(s *Schedule, n int) simtime.Duration {
	elemsOf := func(ch int) int {
		_, l := chunkSpan(n, s.Chunks, ch)
		return l
	}
	var total simtime.Duration
	for _, step := range s.Steps {
		total += c.stepCost(step, elemsOf)
	}
	return total
}

// minStepCost is the cheapest possible step (one tile-local single-line
// leg pair), the unit of the lower bound below.
func (c *coster) minStepCost() simtime.Duration {
	return c.legOverhead() + simtime.CoreCycles(c.m.PutLineCoreCycles) + c.m.MPBAccess(0, false)
}

// lowerBound is an admissible estimate of the remaining cost of a
// partial search state: contribution mass at any rank can at most
// triple per step under the fanout-2 generators (own mask plus two
// incoming), so finishing needs at least ceil(log3 np/biggest) more
// steps, each costing at least minStepCost.
func (c *coster) lowerBound(biggestPop int) simtime.Duration {
	if biggestPop >= c.np {
		return 0
	}
	steps := 0
	for have := biggestPop; have < c.np; have *= 3 {
		steps++
	}
	return simtime.Duration(steps) * c.minStepCost()
}
